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

The hashed families are held as *banks*, not as one object per member.
The plan's per-member KMV sketches stack into one
:class:`~repro.sketches.kmv.KMVBank` (a ``(members, k)`` array of
ascending minima) and its Count-Min sketches into one
:class:`~repro.sketches.countmin.CountMinBank` (a
``(members, depth, width)`` counter array), each with one coefficient
table derived from all members' seeds at once.  A block is keyed once
(``block @ P``, Remark 1's index on every member), reduced once to
distinct ``(member, key, count)`` triples, and scattered once per family;
a merge is an array add plus a per-member min-k, and a snapshot is a few
arrays.  Member ``i`` of a bank equals the standalone sketch the plan
built for member ``i``, fed member ``i``'s keys.  Moment sketches
(StableLp) stay one object per member, fed each member's slice of the
same triples.

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
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .. import telemetry
from ..errors import EstimationError, InvalidParameterError, SnapshotError
from ..persistence import require_keys, snapshottable
from ..sketches.base import (
    DistinctCountSketch,
    FrequencyMomentSketch,
    PointQuerySketch,
    merge_all,
)
from ..sketches.countmin import CountMinBank, CountMinSketch
from ..sketches.hashing import MERSENNE_PRIME_61
from ..sketches.kmv import KMVBank, KMVSketch
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


def _distinct_pairs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct ``(member, key)`` pairs of a ``(members, m)`` key block.

    Returns ``(members, keys, counts)``: members ascending, each member's
    keys ascending, and how many of the block's rows gave each pair.  One
    sort along the rows groups every member's equal keys; a run starts
    wherever a key differs from the one before it, and every member's
    first slot starts one, so no run crosses members.
    """
    keys = np.sort(keys, axis=1)
    starts = np.ones(keys.shape, dtype=bool)
    np.not_equal(keys[:, 1:], keys[:, :-1], out=starts[:, 1:])
    members, slots = np.nonzero(starts)
    counts = np.diff(np.flatnonzero(starts), append=keys.size)
    return members, keys[members, slots], counts


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

    The estimator stacks what the distinct and point factories return into
    one bank per family, reading only each sketch's configuration and
    seed.  Every distinct sketch must be exactly a :class:`KMVSketch` and
    every point sketch exactly a :class:`CountMinSketch`, all empty, with
    one ``k`` (or one ``(depth, width)``) across members; seeds may differ.
    Anything else is refused with
    :class:`~repro.errors.InvalidParameterError`.  Moment sketches are kept
    as returned.
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
        indices = range(len(members))
        self._distinct: KMVBank | None = None
        self._moment_sketches: list[FrequencyMomentSketch] | None = None
        self._point: CountMinBank | None = None
        if plan.distinct_factory is not None:
            self._distinct = KMVBank.stack(map(plan.distinct_factory, indices))
        if plan.moment_factory is not None:
            self._moment_sketches = list(map(plan.moment_factory, indices))
        if plan.point_factory is not None:
            self._point = CountMinBank.stack(map(plan.point_factory, indices))

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

    def _observe_block(self, block) -> None:
        """Key every row on every member once, then feed each family once.

        The vectorized spine of Algorithm 1's ingest path: one product
        ``block @ P`` gives every row's canonical key on every member
        (Remark 1's index, see :func:`_place_values`), one sort reduces
        them to distinct ``(member, key, count)`` triples
        (:func:`_distinct_pairs`), and each family absorbs all the
        triples at once: a bucket pass and one scatter for the Count-Min
        bank, one hash pass and a per-member union for the KMV bank, and
        each member's slice of the triples for the moment sketches.  A
        one-row block (:meth:`observe_row`) takes the same path.

        Equivalence across paths: Count-Min's counters and KMV's sorted
        minima are functions of the multiset of rows seen, so they are
        bit-identical whatever the blocking, arrival order or merge tree;
        float-accumulating moment sketches (StableLp) are
        answer-equivalent (same guarantees, not the same bits), because
        their rounding depends on addition order.
        """
        # (block @ P)ᵀ, computed member-major so each member's keys are
        # one contiguous row.
        members, keys, counts = _distinct_pairs(self._places.T @ block.T)
        kernels = []
        if self._distinct is not None:
            kernels.append(("distinct", lambda: self._distinct.update(members, keys)))
        if self._moment_sketches is not None:
            kernels.append(
                ("moment", lambda: self._update_moments(members, keys, counts))
            )
        if self._point is not None:
            kernels.append(("point", lambda: self._point.update(members, keys, counts)))
        if not telemetry.enabled():
            for _, kernel in kernels:
                kernel()
            return
        # One histogram sample per sketch family per block: the kernel time
        # covers every net member, so the overhead stays block-granular
        # however large the net is.
        histogram = telemetry.get_registry().histogram(
            "repro_sketch_update_block_seconds",
            "update_block kernel seconds per ingested block, by family",
        )
        for name, kernel in kernels:
            started = time.perf_counter()
            kernel()
            histogram.observe(time.perf_counter() - started, family=name)

    def _update_moments(
        self, members: np.ndarray, keys: np.ndarray, counts: np.ndarray
    ) -> None:
        """Feed each member's moment sketch its slice of the triples."""
        bounds = np.searchsorted(members, np.arange(len(self._members) + 1)).tolist()
        for index, sketch in enumerate(self._moment_sketches):
            start, stop = bounds[index], bounds[index + 1]
            sketch.update_block(keys[start:stop], counts[start:stop])

    def _merge_summaries(self, other: "ProjectedFrequencyEstimator") -> None:
        """Merge family by family: array adds and a per-member min-k.

        For the default plans (KMV / Count-Min / p-stable, all built with a
        per-member seed) the merged state is *identical* to having streamed
        the concatenated input into one estimator, so sharded ingestion is
        lossless for Algorithm 1.  Both banks and every moment-sketch pair
        are checked before anything merges, so a refused merge leaves
        ``self`` unchanged.
        """
        assert isinstance(other, AlphaNetEstimator)
        if other._net.alpha != self._net.alpha or (
            other._member_index != self._member_index
        ):
            raise InvalidParameterError(
                "alpha-net estimators must share alpha and the same net "
                "members to be merged"
            )
        families = (
            (self._distinct, other._distinct),
            (self._moment_sketches, other._moment_sketches),
            (self._point, other._point),
        )
        if any((ours is None) != (theirs is None) for ours, theirs in families):
            raise InvalidParameterError(
                "alpha-net estimators must keep the same sketch families "
                "to be merged"
            )
        banks = [
            (ours, theirs)
            for ours, theirs in (families[0], families[2])
            if ours is not None
        ]
        for ours, theirs in banks:
            ours.check_mergeable(theirs)
        if self._moment_sketches is not None:
            merge_all(zip(self._moment_sketches, other._moment_sketches))
        for ours, theirs in banks:
            ours.merge(theirs)

    # -- persistence ------------------------------------------------------------

    def _summary_state(self) -> dict:
        """Net configuration, each bank as a few arrays, and the moment
        sketches as nested snapshots.

        The net members themselves are *not* shipped: they are a
        deterministic function of ``(d, alpha)``, so the loader re-enumerates
        them and only cross-checks the count.
        """
        return {
            "alpha": self._net.alpha,
            "neighbour_rule": str(self._neighbour_rule),
            "member_count": len(self._members),
            "distinct": None if self._distinct is None else self._distinct.state_dict(),
            "moment": (
                None if self._moment_sketches is None else list(self._moment_sketches)
            ),
            "point": (
                None
                if self._point is None
                else self._point.state_dict(self._rows_observed)
            ),
        }

    def _load_summary_state(self, summary: dict) -> None:
        """Rebuild the net from ``(d, alpha)`` and restore the families.

        Each bank refuses, for all members at once, any state that a bank
        fed ``rows_observed`` rows could not hold; every moment sketch must
        have seen ``rows_observed`` rows.
        """
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
        rows = self._rows_observed
        distinct, point = summary["distinct"], summary["point"]
        moment = summary["moment"]
        if distinct is None and moment is None and point is None:
            raise SnapshotError("alpha-net state holds no sketch family at all")
        self._distinct = self._point = None
        if distinct is not None:
            self._distinct = KMVBank.from_state_dict(distinct, member_count, rows)
        if point is not None:
            self._point = CountMinBank.from_state_dict(point, member_count, rows)
        if moment is not None:
            if len(moment) != member_count:
                raise SnapshotError(
                    f"alpha-net state holds {len(moment)} moment sketches "
                    f"for {member_count} net members"
                )
            if {sketch.items_processed for sketch in moment} - {rows}:
                raise SnapshotError(
                    "alpha-net state holds moment sketches that did not each "
                    f"see its rows_observed = {rows} rows"
                )
            moment = list(moment)
        self._moment_sketches = moment

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
            if self._distinct is None:
                raise EstimationError("this estimator keeps no distinct-count sketches")
            return self._distinct.estimate(index)
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
        if self._point is None:
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
        return self._point.estimate_block(index, keys)

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
        total = sum(
            bank.size_in_bits()
            for bank in (self._distinct, self._point)
            if bank is not None
        )
        if self._moment_sketches is not None:
            total += sum(sketch.size_in_bits() for sketch in self._moment_sketches)
        # Net member bookkeeping: one d-bit mask per member.
        total += self.member_count * self.n_columns
        return total
