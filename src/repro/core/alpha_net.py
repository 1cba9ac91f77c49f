"""Algorithm 1: projected frequency estimation by query rounding.

The meta-algorithm of Section 6 keeps, for every column subset ``U`` in an
α-net of ``P([d])``, a β-approximate sketch of the projection of the data
onto ``U``.  When a query ``C`` arrives after the data has been observed it
is answered from the sketch of an α-neighbour ``C'`` of ``C`` in the net,
which by Lemma 6.4 costs an extra multiplicative factor ``r(α, P)`` on top of
the sketch's own β factor (Theorem 6.5).

The estimator is generic in the sketch family: a *sketch plan* maps each net
member to a fresh distinct-count sketch, moment sketch and/or point-query
sketch, so the ``F_0``, ``F_p`` and point-frequency variants share this one
implementation.  The per-row update cost is proportional to the net size —
this is inherent to the algorithm, which trades a ``2^{H(1/2-α)d}`` factor of
space (and per-row work) for the ability to answer arbitrary late-arriving
queries.

What each answer guarantees:

* ``F_0`` and ``F_p`` answers carry Theorem 6.5's factor ``β · r(α, P)``
  (:meth:`AlphaNetEstimator.guarantee`).
* A point frequency on a query that is itself a net member is answered
  within Count-Min's additive ``ε · F_1``.
* A point frequency on a rounded query is answered for a sub-pattern (the
  query shrank: an over-estimate) or for one zero-filled completion (the
  query grew: an under-estimate, which can be 0).  Neither answer has a
  bound.
* Heavy hitters are not offered.  Theorem 5.3 shows that projected
  ``ℓ_p`` heavy hitters with ``p > 1`` need large space for an arbitrary
  ``C``; the uniform-sample estimator reports ``ℓ_1`` heavy hitters
  (Corollary 5.2).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .. import telemetry
from ..coding.words import Word, project_word, word_to_index
from ..errors import EstimationError, InvalidParameterError, SnapshotError
from ..persistence import require_keys, snapshottable
from ..sketches.base import (
    DistinctCountSketch,
    FrequencyMomentSketch,
    PointQuerySketch,
    merge_all,
)
from ..sketches.countmin import CountMinSketch
from ..sketches.hashing import MERSENNE_PRIME_61
from ..sketches.kmv import KMVSketch
from ..sketches.stable_lp import StableLpSketch
from .dataset import ColumnQuery
from .estimator import ProjectedFrequencyEstimator, pattern_words
from .rounding import AlphaNet, NeighbourRule

__all__ = ["SketchPlan", "AlphaNetEstimator", "TheoremSixFiveGuarantee"]


def _place_values(
    members: list[ColumnQuery], n_columns: int, alphabet_size: int
) -> np.ndarray:
    """The ``(d, members)`` place-value matrix ``P`` of Remark 1's keys.

    Column ``i`` holds ``Q^{k-1-j}`` at the ``j``-th column of member ``i``
    (``k`` its size), so ``row @ P[:, i]`` is the index ``e(w)`` of the
    row's pattern ``w`` on member ``i``.  A net whose largest member has
    ``Q^k > 2^61 - 1`` is refused: every key must be exact and below the
    sketches' prime.
    """
    largest = max((len(member.columns) for member in members), default=0)
    if alphabet_size**largest > MERSENNE_PRIME_61:
        raise InvalidParameterError(
            f"a net member of {largest} columns over an alphabet of "
            f"{alphabet_size} has {alphabet_size}^{largest} > 2^61 - 1 "
            "patterns, more than a sketch key can name"
        )
    places = np.zeros((n_columns, len(members)), dtype=np.int64)
    for index, member in enumerate(members):
        size = len(member.columns)
        for position, column in enumerate(member.columns):
            places[column, index] = alphabet_size ** (size - 1 - position)
    return places


@dataclass
class SketchPlan:
    """Factories producing the per-net-member sketches Algorithm 1 stores.

    Any factory may be ``None``, in which case the corresponding query type
    is unsupported by the resulting estimator.  Each factory is called with
    the net-member index, so every member gets its own sketch while the
    whole estimator stays reproducible: the ``default_*`` constructors seed
    member ``i``'s sketch with ``seed + i``.  The ``seed`` field only
    records that base seed.  The estimator never reads it, so a hand-built
    plan seeds its sketches inside its factories.
    """

    distinct_factory: Callable[[int], DistinctCountSketch] | None = None
    moment_factory: Callable[[int], FrequencyMomentSketch] | None = None
    point_factory: Callable[[int], PointQuerySketch] | None = None
    seed: int = 0

    @classmethod
    def default_f0(cls, epsilon: float = 0.25, seed: int = 0) -> "SketchPlan":
        """KMV distinct-count sketches sized for a ``(1 ± epsilon)`` guarantee."""
        return cls(
            distinct_factory=lambda index: KMVSketch.from_epsilon(
                epsilon, seed=seed + index
            ),
            seed=seed,
        )

    @classmethod
    def default_fp(cls, p: float, epsilon: float = 0.25, seed: int = 0) -> "SketchPlan":
        """p-stable moment sketches for ``F_p`` with ``0 < p <= 2``."""
        return cls(
            moment_factory=lambda index: StableLpSketch.from_error(
                p, epsilon, seed=seed + index
            ),
            seed=seed,
        )

    @classmethod
    def default_point(cls, epsilon: float = 0.05, seed: int = 0) -> "SketchPlan":
        """Count-Min point-query sketches with additive error ``epsilon * F_1``."""
        return cls(
            point_factory=lambda index: CountMinSketch.from_error(
                epsilon, seed=seed + index
            ),
            seed=seed,
        )


@dataclass(frozen=True)
class TheoremSixFiveGuarantee:
    """The accuracy/space statement of Theorem 6.5 for a concrete configuration.

    Attributes
    ----------
    approximation_factor:
        ``β · r(α, P)`` — the overall multiplicative guarantee.
    sketch_count:
        Number of sketches kept (one per net member).
    sketch_count_bound:
        The Lemma 6.2 bound ``2^{H(1/2-α)d + 1}`` on that count.
    distortion:
        The rounding distortion component ``r(α, P)``.
    beta:
        The per-sketch approximation factor.
    """

    approximation_factor: float
    sketch_count: int
    sketch_count_bound: float
    distortion: float
    beta: float


@snapshottable("estimator.alpha_net")
class AlphaNetEstimator(ProjectedFrequencyEstimator):
    """Keep a sketch per α-net member; answer queries on a rounded neighbour.

    Parameters
    ----------
    n_columns:
        Dimensionality ``d``.
    alpha:
        Net parameter in ``(0, 1/2)``.
    plan:
        The sketch families to maintain (see :class:`SketchPlan`).
    alphabet_size:
        Alphabet ``Q`` of the data.
    neighbour_rule:
        How mid-band queries are rounded into the net (ablation knob).
    max_net_members:
        Safety guard: building an estimator whose net exceeds this many
        members raises immediately instead of exhausting memory.
    """

    def __init__(
        self,
        n_columns: int,
        alpha: float,
        plan: SketchPlan,
        alphabet_size: int = 2,
        neighbour_rule: NeighbourRule = "nearest",
        max_net_members: int = 20_000,
    ) -> None:
        super().__init__(n_columns=n_columns, alphabet_size=alphabet_size)
        if plan.distinct_factory is None and plan.moment_factory is None and (
            plan.point_factory is None
        ):
            raise InvalidParameterError("the sketch plan must provide at least one factory")
        self._net = AlphaNet(d=n_columns, alpha=alpha)
        self._neighbour_rule: NeighbourRule = neighbour_rule
        members = list(self._net.members(max_members=max_net_members))
        self._members: list[ColumnQuery] = members
        self._member_index: dict[tuple[int, ...], int] = {
            member.columns: index for index, member in enumerate(members)
        }
        self._places = _place_values(members, n_columns, alphabet_size)
        self._distinct_sketches: list[DistinctCountSketch] | None = None
        self._moment_sketches: list[FrequencyMomentSketch] | None = None
        self._point_sketches: list[PointQuerySketch] | None = None
        if plan.distinct_factory is not None:
            self._distinct_sketches = [
                plan.distinct_factory(index) for index in range(len(members))
            ]
        if plan.moment_factory is not None:
            self._moment_sketches = [
                plan.moment_factory(index) for index in range(len(members))
            ]
        if plan.point_factory is not None:
            self._point_sketches = [
                plan.point_factory(index) for index in range(len(members))
            ]

    # -- structure ---------------------------------------------------------------

    @property
    def net(self) -> AlphaNet:
        """The α-net this estimator maintains sketches for."""
        return self._net

    @property
    def alpha(self) -> float:
        """The net parameter α."""
        return self._net.alpha

    @property
    def member_count(self) -> int:
        """Number of net members (equals the number of sketches per family)."""
        return len(self._members)

    @property
    def neighbour_rule(self) -> NeighbourRule:
        """The configured rounding rule."""
        return self._neighbour_rule

    # -- observation ---------------------------------------------------------------

    def _families(self) -> list[tuple[str, list]]:
        """The ``(name, per-member sketches)`` pairs this estimator keeps."""
        return [
            (name, sketches)
            for name, sketches in (
                ("distinct", self._distinct_sketches),
                ("moment", self._moment_sketches),
                ("point", self._point_sketches),
            )
            if sketches is not None
        ]

    def _observe(self, row: Word) -> None:
        families = [sketches for _, sketches in self._families()]
        for index, member in enumerate(self._members):
            key = word_to_index(project_word(row, member.columns), self._alphabet_size)
            for sketches in families:
                sketches[index].update(key)

    def _observe_block(self, block) -> None:
        """Key every row on every member, then feed each member's sketches.

        The vectorized spine of Algorithm 1's ingest path: one product
        ``block @ P`` gives every row's canonical key on every member
        (Remark 1's index, see :func:`_place_values`), and per member
        ``np.unique`` reduces the keys to ``(key, count)`` pairs that feed
        every sketch family through its ``update_block`` kernel.  Each
        distinct pattern is hashed once per member and family.

        Equivalence to per-row ingestion: Count-Min's counters and KMV's
        sorted minima are functions of the multiset of rows seen, so they
        are bit-identical whatever the blocking, arrival order or merge
        tree; float-accumulating moment sketches (StableLp) are
        answer-equivalent (same guarantees, not the same bits), because
        their rounding depends on addition order.
        """
        timed = telemetry.enabled()
        families = self._families()
        family_seconds = {name: 0.0 for name, _ in families}
        keys = (block @ self._places).T
        for index in range(len(self._members)):
            unique, counts = np.unique(keys[index], return_counts=True)
            for name, sketches in families:
                if timed:
                    started = time.perf_counter()
                    sketches[index].update_block(unique, counts)
                    family_seconds[name] += time.perf_counter() - started
                else:
                    sketches[index].update_block(unique, counts)
        if timed:
            # One histogram sample per sketch family per block: the kernel
            # time aggregates across net members so the overhead stays
            # block-granular however large the net is.
            histogram = telemetry.get_registry().histogram(
                "repro_sketch_update_block_seconds",
                "update_block kernel seconds per ingested block, by family",
            )
            for name, seconds in family_seconds.items():
                histogram.observe(seconds, family=name)

    def _merge_summaries(self, other: "ProjectedFrequencyEstimator") -> None:
        """Merge member-by-member via the sketches' own ``merge()`` methods.

        For the default plans (KMV / Count-Min / p-stable, all built with a
        per-member seed) the merged state is *identical* to having streamed
        the concatenated input into one estimator, so sharded ingestion is
        lossless for Algorithm 1.  Every member pair of every family is
        checked before the first one merges, so a sketch incompatibility
        in a later family cannot leave ``self`` partly merged.
        """
        assert isinstance(other, AlphaNetEstimator)
        if other._net.alpha != self._net.alpha or (
            other._member_index != self._member_index
        ):
            raise InvalidParameterError(
                "alpha-net estimators must share alpha and the same net "
                "members to be merged"
            )
        pairs: list = []
        for ours, theirs in (
            (self._distinct_sketches, other._distinct_sketches),
            (self._moment_sketches, other._moment_sketches),
            (self._point_sketches, other._point_sketches),
        ):
            if (ours is None) != (theirs is None):
                raise InvalidParameterError(
                    "alpha-net estimators must keep the same sketch families "
                    "to be merged"
                )
            if ours is not None and theirs is not None:
                pairs.extend(zip(ours, theirs))
        merge_all(pairs)

    # -- persistence ------------------------------------------------------------

    def _summary_state(self) -> dict:
        """Net configuration plus every per-member sketch as nested snapshots.

        The net members themselves are *not* shipped: they are a
        deterministic function of ``(d, alpha)``, so the loader re-enumerates
        them and only cross-checks the count.
        """
        return {
            "alpha": self._net.alpha,
            "neighbour_rule": str(self._neighbour_rule),
            "member_count": len(self._members),
            "distinct": (
                None if self._distinct_sketches is None else list(self._distinct_sketches)
            ),
            "moment": (
                None if self._moment_sketches is None else list(self._moment_sketches)
            ),
            "point": (
                None if self._point_sketches is None else list(self._point_sketches)
            ),
        }

    def _load_summary_state(self, summary: dict) -> None:
        """Rebuild the net from ``(d, alpha)`` and adopt the restored sketches."""
        require_keys(
            summary,
            ("alpha", "neighbour_rule", "member_count", "distinct", "moment", "point"),
            "AlphaNetEstimator",
        )
        rule = summary["neighbour_rule"]
        if rule not in ("nearest", "shrink", "grow"):
            raise SnapshotError(f"unknown neighbour rule {rule!r} in state")
        member_count = int(summary["member_count"])
        self._net = AlphaNet(d=self._n_columns, alpha=float(summary["alpha"]))
        self._neighbour_rule = rule
        if self._net.size() != member_count:
            raise SnapshotError(
                f"alpha-net state declares {member_count} members but the "
                f"net over d={self._n_columns}, alpha={self._net.alpha} has "
                f"{self._net.size()}"
            )
        members = list(self._net.members(max_members=member_count))
        if len(members) != member_count:
            raise SnapshotError(
                f"alpha-net state declares {member_count} members but the "
                f"net enumerates {len(members)}"
            )
        self._members = members
        self._member_index = {
            member.columns: index for index, member in enumerate(members)
        }
        self._places = _place_values(members, self._n_columns, self._alphabet_size)
        families = []
        for name, sketches in (
            ("distinct", summary["distinct"]),
            ("moment", summary["moment"]),
            ("point", summary["point"]),
        ):
            if sketches is None:
                families.append(None)
                continue
            if len(sketches) != member_count:
                raise SnapshotError(
                    f"alpha-net state holds {len(sketches)} {name} sketches "
                    f"for {member_count} net members"
                )
            seen = {sketch.items_processed for sketch in sketches}
            if seen - {self._rows_observed}:
                raise SnapshotError(
                    f"alpha-net state holds {name} sketches that did not each "
                    f"see its rows_observed = {self._rows_observed} rows"
                )
            families.append(list(sketches))
        self._distinct_sketches, self._moment_sketches, self._point_sketches = families
        if all(family is None for family in families):
            raise SnapshotError(
                "alpha-net state holds no sketch family at all"
            )

    # -- query helpers ---------------------------------------------------------------

    def _resolve(self, query: ColumnQuery) -> tuple[int, ColumnQuery]:
        """Index (and identity) of the net member used to answer ``query``."""
        neighbour = self._net.round_query(query, self._neighbour_rule)
        index = self._member_index.get(neighbour.columns)
        if index is None:
            raise EstimationError(
                f"internal error: rounded query {neighbour.columns} is not a net member"
            )
        return index, neighbour

    def rounded_query(self, query: ColumnQuery) -> ColumnQuery:
        """The net member whose sketch answers ``query`` (for inspection)."""
        self._check_query(query)
        _, neighbour = self._resolve(query)
        return neighbour

    # -- queries -------------------------------------------------------------------

    def estimate_fp(self, query: ColumnQuery, p: float) -> float:
        """Estimate ``F_p(A, C)`` from the rounded neighbour's sketch."""
        self._check_query(query)
        if p < 0:
            raise InvalidParameterError(f"p must be non-negative, got {p}")
        if p == 1:
            return float(self.rows_observed)
        index, _ = self._resolve(query)
        if p == 0:
            if self._distinct_sketches is None:
                raise EstimationError("this estimator keeps no distinct-count sketches")
            return float(self._distinct_sketches[index].estimate())
        if self._moment_sketches is None:
            raise EstimationError("this estimator keeps no moment sketches")
        sketch = self._moment_sketches[index]
        if not math.isclose(sketch.p, p):
            raise EstimationError(
                f"this estimator's moment sketches target p={sketch.p}, not p={p}"
            )
        return float(sketch.estimate())

    def estimate_frequency_block(self, query: ColumnQuery, patterns) -> np.ndarray:
        """Estimate pattern frequencies from the rounded neighbour's sketch.

        The query resolves to its net neighbour once, every pattern
        translates onto the neighbour's columns in one ``(m, k)`` integer
        block, the neighbour's place values turn that block into keys, and
        the neighbour's point sketch answers the whole batch via its
        ``estimate_block`` kernel.

        A query that is itself a net member is answered within the point
        sketch's own bound, Count-Min's additive ``ε · F_1``.  Otherwise the
        translation changes the pattern, and the answer has no bound:

        * a smaller neighbour (the query shrank) drops the removed columns
          and answers for that sub-pattern, an over-estimate;
        * a larger neighbour (the query grew) sets every added column to
          symbol 0 and answers for that one completion, an under-estimate
          that can be 0.

        Theorem 6.5 bounds ``F_p`` answers, not point frequencies.  The
        uniform-sample estimator's Theorem 5.1 bound holds for every query.
        """
        self._check_query(query)
        words = pattern_words(patterns)
        self._check_patterns(query, words)
        if self._point_sketches is None:
            raise EstimationError("this estimator keeps no point-query sketches")
        index, neighbour = self._resolve(query)
        if not words:
            return np.zeros(0, dtype=np.float64)
        position = {column: i for i, column in enumerate(query.columns)}
        translated = np.zeros((len(words), len(neighbour.columns)), dtype=np.int64)
        for j, column in enumerate(neighbour.columns):
            i = position.get(column)
            if i is not None:
                translated[:, j] = [word[i] for word in words]
        keys = translated @ self._places[list(neighbour.columns), index]
        return self._point_sketches[index].estimate_block(keys)

    # -- guarantees -------------------------------------------------------------------

    def guarantee(self, p: float, beta: float) -> TheoremSixFiveGuarantee:
        """The Theorem 6.5 guarantee for this configuration and moment order.

        The distortion is Lemma 6.4's for the worst rounding this estimator
        can actually perform: the configured neighbour rule on this net's
        integer bands, over this estimator's alphabet.
        """
        distortion = self._net.distortion(
            p, self._neighbour_rule, self.alphabet_size
        )
        return TheoremSixFiveGuarantee(
            approximation_factor=beta * distortion,
            sketch_count=self.member_count,
            sketch_count_bound=self._net.size_bound(),
            distortion=distortion,
            beta=beta,
        )

    def size_in_bits(self) -> int:
        total = 0
        for family in (self._distinct_sketches, self._moment_sketches, self._point_sketches):
            if family is not None:
                total += sum(sketch.size_in_bits() for sketch in family)
        # Net member bookkeeping: one d-bit mask per member.
        total += self.member_count * self.n_columns
        return total
