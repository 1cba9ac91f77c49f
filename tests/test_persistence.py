"""Round-trip property tests for the persistence layer.

The contract under test, for every registered estimator and sketch:
``from_bytes(to_bytes(x))`` (1) answers every supported query identically
to ``x`` and (2) continues absorbing the stream *bit-identically* to ``x``
under the same input — RNG state travels with the summary.  On top of
that: engine checkpoints restore coordinators and query services exactly,
scenario checkpoint bundles replay byte-identical results, transient
serving state (caches, latency histograms) never crosses a pickle
boundary, and the process-pool ingest backend ships compact estimator
state instead of pickled estimators.
"""

from __future__ import annotations

import errno
import hashlib
import importlib
import json
import pickle
import pkgutil
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

import repro
from repro import (
    CHECKPOINT_FORMAT,
    SNAPSHOT_FORMAT,
    ColumnQuery,
    Coordinator,
    Dataset,
    ExactBaseline,
    QueryService,
    RowStream,
    SnapshotError,
    UniformSampleEstimator,
)
from repro.core.alpha_net import AlphaNetEstimator, SketchPlan
from repro.core.estimator import ProjectedFrequencyEstimator
from repro.engine.checkpoint import load_merged_estimator
from repro.experiments import RunParams, run_experiment, scenario_names
from repro.persistence import (
    SNAPSHOT_MAGIC,
    dump_envelope,
    from_bytes,
    load_envelope,
    registered_tags,
    snapshot_tag,
    to_bytes,
)
from repro.sketches import (
    MERSENNE_PRIME_61,
    CountMinSketch,
    DistinctCountSketch,
    FrequencyMomentSketch,
    KMVSketch,
    MergeableSketch,
    PointQuerySketch,
    ReservoirSampler,
    Sketch,
    StableLpSketch,
    WithReplacementSampler,
)

# Two overlapping streams of keys with skew, so round trips cover both the
# "restore answers" and the "restore then keep ingesting" halves of the
# contract.
STREAM_ONE = [i % 23 for i in range(180)] + [100 + i % 7 for i in range(60)]
STREAM_TWO = [i % 31 for i in range(160)] + [999] * 25


@dataclass(frozen=True)
class SketchCase:
    """One sketch family's round-trip contract."""

    name: str
    make: Callable[[], object]
    #: Probe returning a comparable view of the summary's query answers.
    probe: Callable[[object], object]
    #: Extra update stream fed after restoring (continuation check).
    continuation: list = field(default_factory=lambda: list(STREAM_TWO))


def _point_probe(sketch) -> tuple:
    candidates = list(range(35)) + [100 + i for i in range(7)]
    return tuple(sketch.estimate(key) for key in candidates)


def _feed(sketch, items) -> None:
    """One ``update`` per item, in order."""
    for item in items:
        sketch.update(item)


def _kmv_probe(sketch) -> tuple:
    return (sketch.estimate(), list(sketch.minimum_values()))


SKETCH_CASES = [
    SketchCase("kmv", lambda: KMVSketch(k=48, seed=1), _kmv_probe),
    SketchCase("countmin", lambda: CountMinSketch(width=64, depth=4, seed=1), _point_probe),
    SketchCase("stable-lp", lambda: StableLpSketch(p=1.0, width=16, depth=3, seed=1), lambda s: s.estimate()),
    SketchCase("reservoir", lambda: ReservoirSampler(capacity=25, seed=1), lambda s: s.sample()),
    SketchCase("with-replacement", lambda: WithReplacementSampler(draws=12, seed=1), lambda s: s.sample()),
    # Variants whose state takes another shape: a KMV and a reservoir that
    # never fill (both streams hold fewer distinct items than k, and fewer
    # items than the capacity), a single-row Count-Min, and the Gaussian
    # and general stable samplers.
    SketchCase("kmv-unsaturated", lambda: KMVSketch(k=512, seed=1), _kmv_probe),
    SketchCase("countmin-depth1", lambda: CountMinSketch(width=16, depth=1, seed=1), _point_probe),
    SketchCase("stable-lp-p2", lambda: StableLpSketch(p=2.0, width=16, depth=3, seed=1), lambda s: s.estimate()),
    SketchCase("stable-lp-p0.5", lambda: StableLpSketch(p=0.5, width=16, depth=3, seed=1), lambda s: s.estimate()),
    SketchCase("reservoir-unfilled", lambda: ReservoirSampler(capacity=1_000, seed=1), lambda s: s.sample()),
]


@pytest.mark.parametrize("case", SKETCH_CASES, ids=lambda case: case.name)
def test_sketch_roundtrip_answers_and_continues_identically(case: SketchCase):
    """from_bytes(to_bytes(s)) answers like s and keeps ingesting like s."""
    original = case.make()
    _feed(original, STREAM_ONE)
    restored = from_bytes(to_bytes(original))
    assert type(restored) is type(original)
    assert restored.items_processed == original.items_processed
    assert case.probe(restored) == case.probe(original)
    # Continuation: the restored sketch must consume the rest of the stream
    # (and its RNG, where it has one) exactly as the never-serialized one.
    _feed(original, case.continuation)
    _feed(restored, case.continuation)
    assert case.probe(restored) == case.probe(original)
    assert restored.size_in_bits() == original.size_in_bits()


def test_every_registered_sketch_family_is_covered():
    """The parametrized cases cover every sketch tag in the registry."""
    covered = {snapshot_tag(case.make()) for case in SKETCH_CASES}
    sketch_tags = {tag for tag in registered_tags() if tag.startswith("sketch.")}
    assert covered == sketch_tags


# -- class contracts -------------------------------------------------------------

#: The classes that declare the contract.  Their versions of the methods
#: below are abstract or raise SnapshotError or NotImplementedError, so a
#: class deriving from them must define its own.
PROTOCOL_BASES = (
    Sketch,
    MergeableSketch,
    DistinctCountSketch,
    FrequencyMomentSketch,
    PointQuerySketch,
    ProjectedFrequencyEstimator,
)

#: (base, methods every class deriving from it must define itself).
CONTRACT_METHODS = (
    (Sketch, ("state_dict", "load_state_dict")),
    (MergeableSketch, ("merge", "update_block")),
    (PointQuerySketch, ("estimate_block",)),
    (ProjectedFrequencyEstimator, ("_summary_state", "_load_summary_state", "_merge_summaries")),
)

#: (base, methods only the base may define).  A scalar point query is a
#: one-entry ``estimate_frequency_block`` (or sketch ``estimate_block``)
#: call, so a class that defines its own ``estimate_frequency`` (or sketch
#: ``estimate``) keeps a second query path beside its kernel.
BASE_ONLY_METHODS = (
    (ProjectedFrequencyEstimator, ("estimate_frequency",)),
    (PointQuerySketch, ("estimate",)),
)


def _contract_gaps(cls: type) -> list:
    """What ``cls`` lacks of its contract: ``"@snapshottable"`` and method
    names, plus ``"own NAME"`` for each base-only method it defines."""
    gaps = []
    try:
        snapshot_tag(cls)
    except SnapshotError:
        gaps.append("@snapshottable")
    for base, names in CONTRACT_METHODS:
        if not issubclass(cls, base):
            continue
        for name in names:
            owner = next(klass for klass in cls.__mro__ if name in vars(klass))
            if owner in PROTOCOL_BASES:
                gaps.append(name)
    for base, names in BASE_ONLY_METHODS:
        if not issubclass(cls, base):
            continue
        for name in names:
            owner = next(klass for klass in cls.__mro__ if name in vars(klass))
            if owner is not base:
                gaps.append(f"own {name}")
    return gaps


def _library_classes() -> list:
    """Every class in ``repro.*`` below a protocol base, at any depth."""
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)
    found, pending = [], [Sketch, ProjectedFrequencyEstimator]
    while pending:
        for cls in pending.pop().__subclasses__():
            if cls not in found:
                found.append(cls)
                pending.append(cls)
    library = [
        cls
        for cls in found
        if cls.__module__.split(".")[0] == "repro" and cls not in PROTOCOL_BASES
    ]
    return sorted(library, key=lambda cls: (cls.__module__, cls.__qualname__))


LIBRARY_CLASSES = _library_classes()


@pytest.mark.parametrize("cls", LIBRARY_CLASSES, ids=lambda cls: cls.__qualname__)
def test_every_sketch_and_estimator_class_keeps_its_contract(cls):
    """Each library class below a protocol base, at any depth, is registered,
    defines its own snapshot, merge and block methods, and answers point
    queries through one kernel."""
    assert _contract_gaps(cls) == []


def test_the_contract_walk_finds_every_registered_class():
    """The walk sees every registered class, and nothing else is registered."""
    assert sorted(snapshot_tag(cls) for cls in LIBRARY_CLASSES) == registered_tags()


def _broken(base: type, *defined: str) -> type:
    """An undecorated subclass of ``base`` whose own body defines ``defined``."""
    return type(
        f"Broken{base.__name__}",
        (base,),
        {name: lambda self, *args, **kwargs: None for name in defined},
    )


class Transitive(CountMinSketch):
    """A subclass of a registered sketch that carries no tag of its own."""


@pytest.mark.parametrize(
    ("cls", "expected"),
    [
        (
            _broken(MergeableSketch, "merge", "update_block"),
            ["@snapshottable", "state_dict", "load_state_dict"],
        ),
        (
            _broken(MergeableSketch, "merge", "update_block", "state_dict", "load_state_dict"),
            ["@snapshottable"],
        ),
        (
            _broken(DistinctCountSketch, "update_block", "state_dict", "load_state_dict"),
            ["@snapshottable", "merge"],
        ),
        (
            _broken(PointQuerySketch, "merge", "state_dict", "load_state_dict", "estimate_block"),
            ["@snapshottable", "update_block"],
        ),
        (
            _broken(PointQuerySketch, "merge", "update_block", "state_dict", "load_state_dict"),
            ["@snapshottable", "estimate_block"],
        ),
        (
            _broken(ProjectedFrequencyEstimator, "_summary_state"),
            ["@snapshottable", "_load_summary_state", "_merge_summaries"],
        ),
        (Transitive, ["@snapshottable"]),
        (
            _broken(
                ProjectedFrequencyEstimator,
                "_summary_state",
                "_load_summary_state",
                "_merge_summaries",
                "estimate_frequency",
                "estimate_frequency_block",
            ),
            ["@snapshottable", "own estimate_frequency"],
        ),
        (
            _broken(
                PointQuerySketch,
                "merge",
                "update_block",
                "state_dict",
                "load_state_dict",
                "estimate",
                "estimate_block",
            ),
            ["@snapshottable", "own estimate"],
        ),
    ],
    ids=[
        "no-state-dict",
        "unregistered",
        "no-merge",
        "no-update-block",
        "no-estimate-block",
        "partial-estimator-hooks",
        "transitive-unregistered",
        "second-point-query-path",
        "second-sketch-query-path",
    ],
)
def test_contract_check_names_each_gap(cls, expected):
    """The contract check names every gap of a broken class, and no other."""
    assert _contract_gaps(cls) == expected


def _estimator_probe(estimator, query: ColumnQuery) -> tuple:
    answers = []
    if estimator.supports("estimate_fp"):
        for p in (0, 1, 2):
            try:
                answers.append(("fp", p, estimator.estimate_fp(query, p)))
            except Exception as error:  # unsupported moment orders vary
                answers.append(("fp", p, type(error).__name__))
    if estimator.supports("estimate_frequency"):
        for pattern in ((0, 0, 0), (0, 1, 0), (1, 1, 1)):
            answers.append(
                ("freq", pattern, estimator.estimate_frequency(query, pattern))
            )
    if estimator.supports("heavy_hitters"):
        try:
            report = estimator.heavy_hitters(query, 0.1)
            answers.append(("hh", tuple(sorted(report.items()))))
        except Exception as error:
            answers.append(("hh", type(error).__name__))
    return tuple(answers)


def _mixed_plan(seed: int = 0) -> SketchPlan:
    return SketchPlan(
        distinct_factory=lambda index: KMVSketch(k=16, seed=seed + index),
        moment_factory=lambda index: StableLpSketch(
            p=2.0, width=16, depth=2, seed=seed + index
        ),
        point_factory=lambda index: CountMinSketch(
            width=32, depth=2, seed=seed + index
        ),
    )


ESTIMATOR_CASES = [
    ("usample-reservoir", lambda: UniformSampleEstimator(8, 64, seed=3)),
    (
        "usample-with-replacement",
        lambda: UniformSampleEstimator(8, 32, with_replacement=True, seed=3),
    ),
    ("alphanet-mixed", lambda: AlphaNetEstimator(8, alpha=0.3, plan=_mixed_plan())),
    (
        "alphanet-default-point",
        lambda: AlphaNetEstimator(8, alpha=0.3, plan=SketchPlan.default_point(seed=2)),
    ),
    ("exact", lambda: ExactBaseline(n_columns=8)),
]


@pytest.mark.parametrize(
    "factory", [case[1] for case in ESTIMATOR_CASES],
    ids=[case[0] for case in ESTIMATOR_CASES],
)
def test_estimator_roundtrip_answers_and_continues_identically(factory):
    """Every registered estimator round-trips queries and continued ingest."""
    data = Dataset.random(n_rows=400, n_columns=8, seed=5)
    more = Dataset.random(n_rows=150, n_columns=8, seed=6)
    query = ColumnQuery.of([0, 3, 6], 8)
    original = factory().observe(data)
    restored = ProjectedFrequencyEstimator.from_bytes(original.to_bytes())
    assert type(restored) is type(original)
    assert restored.rows_observed == original.rows_observed
    assert restored.size_in_bits() == original.size_in_bits()
    assert _estimator_probe(restored, query) == _estimator_probe(original, query)
    # Bit-identical continued ingest under a fixed seed: both take the
    # vectorized block path and then the per-row path.
    original.observe(more)
    restored.observe(more)
    for row in [(0, 1, 0, 1, 0, 1, 0, 1), (1, 1, 1, 1, 0, 0, 0, 0)]:
        original.observe_row(row)
        restored.observe_row(row)
    assert _estimator_probe(restored, query) == _estimator_probe(original, query)


def _pinned_sketch(sketch):
    """Feed a sketch counted key blocks, the key range's ends included."""
    rng = np.random.default_rng(11)
    for _ in range(3):
        keys = rng.integers(0, 512, size=150)
        sketch.update_block(keys, rng.integers(1, 4, size=150))
    sketch.update_block(np.array([0, 2**61 - 2, 2**40] * 3, dtype=np.uint64))
    return sketch


def _pinned_estimator(estimator):
    """Feed an estimator a few hundred 8-column rows in uneven blocks."""
    rows = np.random.default_rng(12).integers(0, 2, size=(300, 8))
    for start in range(0, rows.shape[0], 128):
        estimator.observe_rows(rows[start : start + 128])
    return estimator


def _pinned_alphanet() -> AlphaNetEstimator:
    plan = SketchPlan(
        distinct_factory=lambda index: KMVSketch(k=16, seed=5 + index),
        point_factory=lambda index: CountMinSketch(width=32, depth=3, seed=5 + index),
    )
    return AlphaNetEstimator(8, alpha=0.25, plan=plan)


#: SHA-256 of the decompressed snapshot JSON of seeded summaries.  The
#: bytes of a summary are a contract across commits, not only across the
#: paths of one commit: a change to the packing, hashing or sampling
#: kernels that moves a single bit shows here.  A snapshot-format bump
#: updates these together with ``SNAPSHOT_FORMAT``; the payload holds the
#: format tag, so a summary whose state did not change moves by the tag
#: alone.
PINNED_SNAPSHOT_SHA256 = {
    "kmv": (
        lambda: _pinned_sketch(KMVSketch(k=32, seed=3)),
        "3b366c6e248e4403cbff3d51348a1d6ad220f684e63dec2f27a62ad6c9d828a4",
    ),
    "countmin": (
        lambda: _pinned_sketch(CountMinSketch(width=64, depth=4, seed=3)),
        "3caae23bf8878e19b83b16a6a5a84ef3c1547cf75b7d741ec99626344eca7465",
    ),
    "alphanet-kmv-countmin": (
        lambda: _pinned_estimator(_pinned_alphanet()),
        "54df67a4d9839f4b91d4a05b1dd32f0098b57e7b86e0ca81def1f104f2aab31f",
    ),
    "usample-reservoir": (
        lambda: _pinned_estimator(UniformSampleEstimator(8, 64, seed=3)),
        "ec560dd14913ee8638a369c171653e56a61c38a8c0268e21c5c81920ef645e53",
    ),
    "usample-with-replacement": (
        lambda: _pinned_estimator(
            UniformSampleEstimator(8, 32, with_replacement=True, seed=3)
        ),
        "ea6ff3710c55e56f213f3e6e2ce1f48857716c404009af450a462d7c3e264728",
    ),
    "exact": (
        lambda: _pinned_estimator(ExactBaseline(n_columns=8)),
        "ec97c6acf0ad4c95d9b219399b4f7c7a4573fa2650979dfd6f2a56b5899ef062",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_SNAPSHOT_SHA256))
def test_snapshot_bits_are_pinned(name):
    """A seeded summary's snapshot JSON hashes to its recorded SHA-256.

    The JSON is hashed rather than the zlib stream, so another zlib build
    cannot change the digest.
    """
    make, expected = PINNED_SNAPSHOT_SHA256[name]
    blob = make().to_bytes()
    assert blob.startswith(SNAPSHOT_MAGIC)
    payload = zlib.decompress(blob[len(SNAPSHOT_MAGIC) :])
    assert hashlib.sha256(payload).hexdigest() == expected


def test_every_registered_estimator_family_is_covered():
    """The estimator cases cover every estimator tag in the registry."""
    covered = {snapshot_tag(factory()) for _, factory in ESTIMATOR_CASES}
    estimator_tags = {
        tag for tag in registered_tags() if tag.startswith("estimator.")
    }
    assert covered == estimator_tags


#: Type tags of deleted classes.  No class holds one, and none may be
#: reused: a payload written under one is refused, never read as another
#: class.
RETIRED_TAGS = (
    "sketch.linear_counting",
    "sketch.lp_sampler",
    "sketch.bernoulli",
    "sketch.bjkst",
    "sketch.hyperloglog",
    "sketch.ams",
    "sketch.countsketch",
    "sketch.misra_gries",
    "sketch.space_saving",
    "estimator.all_subsets",
)


def test_retired_tags_stay_retired():
    """No retired tag is registered, and a payload under one is refused."""
    assert not set(RETIRED_TAGS) & set(registered_tags())
    envelope = load_envelope(KMVSketch(k=8, seed=1).to_bytes())
    envelope["type"] = "sketch.hyperloglog"
    with pytest.raises(
        SnapshotError, match=r"unknown snapshot type tag 'sketch\.hyperloglog'"
    ):
        from_bytes(dump_envelope(envelope))


def test_snapshot_envelope_is_schema_checked():
    """Garbage, wrong tags and unregistered types all fail loudly."""
    with pytest.raises(SnapshotError):
        from_bytes(b"not a snapshot at all")
    estimator = ExactBaseline(n_columns=3)
    estimator.observe_row((0, 1, 0))
    blob = estimator.to_bytes()
    envelope = load_envelope(blob)
    assert envelope["format"] == SNAPSHOT_FORMAT
    assert envelope["type"] == "estimator.exact"
    # A truncated payload cannot decompress.
    with pytest.raises(SnapshotError):
        from_bytes(blob[:-10])
    # Type-checked from_bytes on the wrong class refuses.
    with pytest.raises(SnapshotError):
        UniformSampleEstimator.from_bytes(blob)


@pytest.mark.parametrize(
    "minima_gaps",
    [[[1, 2]], [1, 1, 1, 1, 1], [2, -1], [1, 0]],
    ids=["2-d", "longer-than-k", "decreasing", "repeated"],
)
def test_kmv_refuses_minima_no_sketch_could_hold(minima_gaps):
    """A KMV state must be at most k distinct hashes in ascending order."""
    state = KMVSketch(k=4, seed=1).state_dict()
    state["minima_gaps"] = np.array(minima_gaps, dtype=np.int64)
    state["items_processed"] = 5
    with pytest.raises(SnapshotError, match="strictly increasing"):
        KMVSketch.from_state_dict(state)


def _restore_with(sketch, **changes):
    """Restore ``sketch``'s state with ``changes`` applied."""
    state = sketch.state_dict()
    state.update(changes)
    return type(sketch).from_state_dict(state)


def _seeded(sketch):
    for key in np.random.default_rng(0).integers(0, 64, size=200).tolist():
        sketch.update(key)
    return sketch


@pytest.mark.parametrize(
    ("make", "changes", "message"),
    [
        (lambda: KMVSketch(k=8, seed=1), {"minima_gaps": np.array([1.5, 1.0])}, "integer"),
        (lambda: KMVSketch(k=8, seed=1), {"minima_gaps": np.array([-1, 3])}, "2\\^61"),
        (lambda: _seeded(KMVSketch(k=8, seed=1)), {"items_processed": 7}, "below"),
        (
            lambda: _seeded(StableLpSketch(p=1.0, width=16, depth=3, seed=1)),
            {"counters": np.zeros((1, 2))},
            "finite \\(3, 16\\)",
        ),
        (
            lambda: _seeded(StableLpSketch(p=1.0, width=16, depth=3, seed=1)),
            {"counters": np.full((3, 16), np.nan)},
            "finite",
        ),
        (
            lambda: _seeded(StableLpSketch(p=1.0, width=16, depth=3, seed=1)),
            {"items_processed": -5},
            "non-negative",
        ),
    ],
    ids=[
        "kmv-float-minima",
        "kmv-negative-minimum",
        "kmv-fewer-updates-than-minima",
        "stable-lp-wrong-shape",
        "stable-lp-not-finite",
        "stable-lp-negative-count",
    ],
)
def test_sketch_restore_refuses_states_no_ingest_could_produce(make, changes, message):
    """Each corrupted state raises SnapshotError; the uncorrupted one loads."""
    sketch = make()
    assert _restore_with(sketch).state_dict().keys() == sketch.state_dict().keys()
    with pytest.raises(SnapshotError, match=message):
        _restore_with(sketch, **changes)


def _fed_sampler(sampler):
    sampler.update_block([(i % 5, i % 3) for i in range(20)])
    return sampler


def _usample_state(with_replacement: bool, change) -> dict:
    estimator = _pinned_estimator(
        UniformSampleEstimator(8, 16, with_replacement=with_replacement, seed=3)
    )
    state = estimator.state_dict()
    summary = dict(state["summary"])
    state = dict(state, summary=summary)
    change(state, summary)
    return state


def _resized_sampler(state: dict, summary: dict) -> None:
    """A sampler of another size, fed the same rows."""
    sampler = summary["sampler"]
    if isinstance(sampler, WithReplacementSampler):
        other = WithReplacementSampler(draws=sampler.draws + 1, seed=3)
    else:
        other = ReservoirSampler(capacity=sampler.capacity + 1, seed=3)
    other.update_block(
        np.random.default_rng(12).integers(0, 2, size=(300, 8))
    )
    summary["sampler"] = other


@pytest.mark.parametrize(
    ("make", "changes", "message"),
    [
        (
            lambda: _fed_sampler(ReservoirSampler(capacity=4, seed=1)),
            {"reservoir": [(0, 0)] * 5},
            "5 retained rows exceed the capacity 4",
        ),
        (
            lambda: _fed_sampler(ReservoirSampler(capacity=4, seed=1)),
            {"items_processed": 3},
            "or the 3 items processed",
        ),
        (
            lambda: _fed_sampler(WithReplacementSampler(draws=4, seed=1)),
            {"slots": [(0, 0)] * 3},
            "3 slots for 4 draws",
        ),
        (
            lambda: WithReplacementSampler(draws=4, seed=1),
            {"slots": [None, (0, 1), None, None]},
            "items_processed = 0",
        ),
    ],
    ids=[
        "reservoir-over-capacity",
        "reservoir-over-items",
        "with-replacement-slot-count",
        "with-replacement-filled-before-any-item",
    ],
)
def test_sampler_restore_refuses_states_no_ingest_could_produce(make, changes, message):
    """Each corrupted sampler state raises SnapshotError; the uncorrupted
    one loads."""
    sampler = make()
    assert _restore_with(sampler).state_dict().keys() == sampler.state_dict().keys()
    with pytest.raises(SnapshotError, match=message):
        _restore_with(sampler, **changes)


@pytest.mark.parametrize(
    ("with_replacement", "change", "message"),
    [
        (False, lambda state, summary: state.update(rows_observed=10**6), "rows_observed = 1000000"),
        (True, lambda state, summary: state.update(rows_observed=299), "rows_observed = 299"),
        (False, _resized_sampler, "size 17 for sample_size = 16"),
        (True, _resized_sampler, "size 17 for sample_size = 16"),
    ],
    ids=["reservoir-rows", "with-replacement-rows", "reservoir-size", "with-replacement-size"],
)
def test_usample_restore_refuses_a_sampler_of_other_rows_or_size(
    with_replacement, change, message
):
    """uSample's n/t scale reads rows_observed, so the sampler must have
    seen exactly those rows, and it must hold sample_size rows."""
    UniformSampleEstimator.from_state_dict(
        _usample_state(with_replacement, lambda state, summary: None)
    )
    with pytest.raises(SnapshotError, match=message):
        UniformSampleEstimator.from_state_dict(_usample_state(with_replacement, change))


@pytest.mark.parametrize("family", ["distinct", "point"])
def test_alpha_net_restore_refuses_sketches_that_saw_other_rows(family):
    """Every member sketch sees every row, so each bank must be one that
    rows_observed rows could fill; F1 would otherwise answer a made-up
    count."""
    state = _pinned_estimator(_pinned_alphanet()).state_dict()
    other = "point" if family == "distinct" else "distinct"
    state = dict(state, summary=dict(state["summary"], **{other: None}))
    AlphaNetEstimator.from_state_dict(state)
    with pytest.raises(SnapshotError, match="7 rows"):
        AlphaNetEstimator.from_state_dict(dict(state, rows_observed=7))


def _bank_state_with(family: str, change, rows: int = 300) -> dict:
    """The pinned α-net's state, fed its first ``rows`` rows, with
    ``change`` applied to one bank's state."""
    estimator = _pinned_alphanet()
    estimator.observe_rows(np.random.default_rng(12).integers(0, 2, size=(rows, 8)))
    state = estimator.state_dict()
    bank = dict(state["summary"][family])
    change(bank)
    return dict(state, summary=dict(state["summary"], **{family: bank}))


def _last_member_gap(slot: int, value: int):
    """Set the gap at ``slot`` of the last member, the net's full column
    set, whose minima are the last gaps."""

    def change(bank: dict) -> None:
        gaps = bank["minima_gaps"].copy()
        gaps[len(gaps) - int(bank["occupancy"][-1]) + slot] = value
        bank["minima_gaps"] = gaps

    return change


def _last_member_holds_one_more(bank: dict) -> None:
    """The last member keeps one more minimum, just above its largest."""
    occupancy = bank["occupancy"].copy()
    occupancy[-1] += 1
    bank["occupancy"] = occupancy
    bank["minima_gaps"] = np.append(bank["minima_gaps"], np.uint64(1))


def _negative_counter(bank: dict) -> None:
    """Move one count into a -1 so every row still sums to rows_observed."""
    counters = bank["counters"].astype(np.int64)
    moved = counters[0, 0, 0] + 1
    counters[0, 0, 0] -= moved
    counters[0, 0, 1] += moved
    bank["counters"] = counters


def _truncated(name: str):
    def change(bank: dict) -> None:
        bank[name] = bank[name][..., :-1]

    return change


def _one_more_count(bank: dict) -> None:
    counters = bank["counters"].copy()
    counters[5, 1, 0] += 1
    bank["counters"] = counters


@pytest.mark.parametrize(
    ("family", "change", "rows", "message"),
    [
        ("distinct", _truncated("seed_gaps"), 300, "'seed_gaps' must be an integer array of shape"),
        ("distinct", _truncated("occupancy"), 300, "'occupancy' must be an integer array of shape"),
        ("distinct", _truncated("minima_gaps"), 300, "'minima_gaps' must be an integer array of shape"),
        ("distinct", _last_member_gap(1, 0), 300, "strictly increasing"),
        ("distinct", _last_member_gap(2, MERSENNE_PRIME_61), 300, "not below 2\\^61 - 1"),
        (
            "distinct",
            _last_member_gap(3, MERSENNE_PRIME_61 - 1),
            300,
            "strictly increasing hashes in \\[0, 2\\^61 - 1\\)",
        ),
        ("distinct", _last_member_holds_one_more, 300, "exceeds k = 16"),
        ("distinct", _last_member_holds_one_more, 5, "or the 5 rows observed"),
        ("point", _truncated("seed_gaps"), 300, "'seed_gaps' must be an integer array of shape"),
        ("point", _truncated("counters"), 300, "'counters' must be an integer array of shape"),
        ("point", _negative_counter, 300, "negative"),
        ("point", _one_more_count, 300, "sum to the 300 rows"),
    ],
    ids=[
        "kmv-seed-shape",
        "kmv-occupancy-shape",
        "kmv-minima-shape",
        "kmv-repeated-minimum",
        "kmv-gap-not-below-p",
        "kmv-minimum-not-below-p",
        "kmv-occupancy-above-k",
        "kmv-occupancy-above-rows",
        "countmin-seed-shape",
        "countmin-counter-shape",
        "countmin-negative-counter",
        "countmin-row-sum",
    ],
)
def test_alpha_net_restore_refuses_banks_no_ingest_could_produce(
    family, change, rows, message
):
    """Each corrupted bank state raises SnapshotError; the uncorrupted one
    loads."""
    AlphaNetEstimator.from_state_dict(_bank_state_with(family, lambda bank: None, rows))
    with pytest.raises(SnapshotError, match=message):
        AlphaNetEstimator.from_state_dict(_bank_state_with(family, change, rows))


def _countmin_state_with(change) -> dict:
    sketch = CountMinSketch(width=64, depth=3, seed=1)
    sketch.update_block(np.random.default_rng(0).integers(0, 4**3, 200))
    state = sketch.state_dict()
    change(state)
    return state


def _move_one_count(state: dict) -> None:
    state["table"][1, 0] += 1


@pytest.mark.parametrize(
    "change",
    [
        lambda state: state.update(table=np.zeros((1, 2), dtype=np.int64)),
        lambda state: state.update(table=np.zeros((3, 64, 1), dtype=np.int64)),
        lambda state: state.update(table=-np.ones((3, 64), dtype=np.int64)),
        lambda state: state.update(items_processed=199),
        _move_one_count,
    ],
    ids=["wrong-shape", "3-d", "negative", "rows-exceed-f1", "row-sums-differ"],
)
def test_countmin_refuses_a_table_no_sketch_could_hold(change):
    """A Count-Min table is (depth, width), non-negative, and each row sums to F1."""
    CountMinSketch.from_state_dict(_countmin_state_with(lambda state: None))
    with pytest.raises(SnapshotError, match="rows each sum to"):
        CountMinSketch.from_state_dict(_countmin_state_with(change))


# -- engine checkpoints ---------------------------------------------------------


def _engine(factory, **kwargs) -> Coordinator:
    coordinator = Coordinator(factory, **kwargs)
    data = Dataset.random(n_rows=500, n_columns=8, seed=2)
    coordinator.ingest(RowStream(data))
    return coordinator


def test_coordinator_checkpoint_roundtrip(tmp_path):
    """save_checkpoint/load_checkpoint restore answers and continued ingest."""
    engine = _engine(
        lambda: UniformSampleEstimator(8, 64, seed=4),
        n_shards=2,
        backend="serial",
        batch_size=128,
    )
    path = tmp_path / "engine.ckpt"
    info = engine.save_checkpoint(path)
    assert info.n_bytes == path.stat().st_size > 0
    assert info.rows_total == 500
    assert info.summary_bits == engine.merged_estimator.size_in_bits()
    restored = Coordinator.load_checkpoint(
        path, lambda: UniformSampleEstimator(8, 64, seed=4)
    )
    assert restored.n_shards == engine.n_shards
    assert restored.batch_size == engine.batch_size
    query = ColumnQuery.of([1, 4, 7], 8)
    assert (
        restored.merged_estimator.estimate_frequency(query, (0, 1, 0))
        == engine.merged_estimator.estimate_frequency(query, (0, 1, 0))
    )
    # Continued ingest is bit-identical: same stream into both engines.
    more = Dataset.random(n_rows=200, n_columns=8, seed=9)
    engine.ingest(RowStream(more))
    restored.ingest(RowStream(more))
    assert (
        restored.merged_estimator.estimate_frequency(query, (1, 0, 1))
        == engine.merged_estimator.estimate_frequency(query, (1, 0, 1))
    )


def test_checkpoint_restore_without_factory_serves_but_cannot_ingest(tmp_path):
    """A factory-less restore serves queries; further ingest raises."""
    from repro.errors import EstimationError

    engine = _engine(lambda: ExactBaseline(n_columns=8), n_shards=2, backend="serial")
    path = tmp_path / "engine.ckpt"
    engine.save_checkpoint(path)
    restored = Coordinator.load_checkpoint(path)
    query = ColumnQuery.of([0, 5], 8)
    assert restored.merged_estimator.estimate_fp(query, 0) == (
        engine.merged_estimator.estimate_fp(query, 0)
    )
    with pytest.raises(EstimationError):
        restored.ingest(RowStream(Dataset.random(10, 8, seed=1)))


def test_query_service_warm_start_from_checkpoint(tmp_path):
    """QueryService.from_checkpoint serves identically to the live service."""
    engine = _engine(lambda: ExactBaseline(n_columns=8), n_shards=2, backend="serial")
    path = tmp_path / "engine.ckpt"
    engine.save_checkpoint(path)
    live = engine.query_service()
    warm = QueryService.from_checkpoint(path)
    query = ColumnQuery.of([2, 4, 6], 8)
    assert warm.estimate_fp(query, 0) == live.estimate_fp(query, 0)
    assert warm.heavy_hitters(query, 0.05) == live.heavy_hitters(query, 0.05)
    assert load_merged_estimator(path).rows_observed == 500


def test_from_checkpoint_reads_the_file_once(tmp_path, monkeypatch):
    """One envelope decode per warm start, and a degraded checkpoint's
    coverage still reaches the restored service."""
    engine = _engine(lambda: ExactBaseline(n_columns=8), n_shards=2, backend="serial")
    path = tmp_path / "engine.ckpt"
    engine.save_checkpoint(path)
    envelope = load_envelope(path.read_bytes())
    envelope["config"]["coverage"] = 0.5
    path.write_bytes(dump_envelope(envelope))
    decodes = []

    def counting_load_envelope(data):
        decodes.append(len(data))
        return load_envelope(data)

    monkeypatch.setattr("repro.persistence.load_envelope", counting_load_envelope)
    service = QueryService.from_checkpoint(str(path))
    assert len(decodes) == 1
    assert service.coverage == 0.5
    assert service.estimator.rows_observed == 500


def test_checkpoint_file_declares_the_checkpoint_format(tmp_path):
    """The checkpoint envelope is the format tag, the config manifest and
    the merged summary, and nothing else."""
    engine = _engine(lambda: ExactBaseline(n_columns=8), n_shards=1, backend="serial")
    path = tmp_path / "engine.ckpt"
    engine.save_checkpoint(path)
    envelope = load_envelope(path.read_bytes())
    assert set(envelope) == {"format", "config", "merged"}
    assert envelope["format"] == CHECKPOINT_FORMAT == "repro/engine-checkpoint@5"
    assert envelope["config"]["n_shards"] == 1


def test_checkpoint_size_does_not_grow_with_shards(tmp_path):
    """Only the merged summary is saved, so one stream checkpoints to the
    same size whether one replica or four built it."""
    data = Dataset.random(n_rows=2000, n_columns=8, seed=11)
    sizes = []
    for n_shards in (1, 4):
        engine = Coordinator(
            lambda: AlphaNetEstimator(
                n_columns=8, alpha=0.25, plan=SketchPlan.default_f0(seed=3)
            ),
            n_shards=n_shards,
            backend="serial",
            batch_size=500,
        )
        engine.ingest(RowStream(data))
        sizes.append(engine.save_checkpoint(tmp_path / f"{n_shards}.ckpt").n_bytes)
    assert abs(sizes[1] - sizes[0]) <= 0.01 * sizes[0], sizes


def _write_unchecked_envelope(path, envelope: dict) -> None:
    """Frame ``envelope`` like ``dump_envelope`` minus its schema check."""
    payload = json.dumps(envelope, sort_keys=True, separators=(",", ":"))
    path.write_bytes(SNAPSHOT_MAGIC + zlib.compress(payload.encode("utf-8")))


def test_version_1_checkpoints_are_refused(tmp_path):
    """A file tagged with the old per-shard format is refused by both the
    engine restore and the serving warm start, with the format named."""
    engine = _engine(lambda: ExactBaseline(n_columns=8), n_shards=2, backend="serial")
    path = tmp_path / "engine.ckpt"
    engine.save_checkpoint(path)
    envelope = load_envelope(path.read_bytes())
    envelope["format"] = "repro/engine-checkpoint@1"
    envelope["shards"] = [
        {"shard_id": 0, "rows_ingested": 500, "estimator": envelope["merged"]}
    ]
    _write_unchecked_envelope(path, envelope)
    with pytest.raises(SnapshotError, match="engine-checkpoint@1"):
        Coordinator.load_checkpoint(path, lambda: ExactBaseline(n_columns=8))
    with pytest.raises(SnapshotError, match="engine-checkpoint@1"):
        QueryService.from_checkpoint(str(path))


def test_version_2_checkpoints_and_version_1_snapshots_are_refused(tmp_path):
    """Files written before summaries became functions of their rows are
    refused with their format named: a checkpoint by the engine restore
    and the serving warm start, a snapshot by ``from_bytes``."""
    engine = _engine(lambda: ExactBaseline(n_columns=8), n_shards=2, backend="serial")
    path = tmp_path / "engine.ckpt"
    engine.save_checkpoint(path)
    envelope = load_envelope(path.read_bytes())
    envelope["format"] = "repro/engine-checkpoint@2"
    _write_unchecked_envelope(path, envelope)
    with pytest.raises(SnapshotError, match="engine-checkpoint@2"):
        Coordinator.load_checkpoint(path, lambda: ExactBaseline(n_columns=8))
    with pytest.raises(SnapshotError, match="engine-checkpoint@2"):
        QueryService.from_checkpoint(str(path))

    snapshot = tmp_path / "estimator.snapshot"
    envelope = load_envelope(engine.merged_estimator.to_bytes())
    envelope["format"] = "repro/estimator-snapshot@1"
    _write_unchecked_envelope(snapshot, envelope)
    with pytest.raises(SnapshotError, match="estimator-snapshot@1"):
        from_bytes(snapshot.read_bytes())
    assert SNAPSHOT_FORMAT == "repro/estimator-snapshot@4"


def test_version_3_checkpoints_and_version_2_snapshots_are_refused(tmp_path):
    """Files written before sketches hashed integer keys are refused with
    their format named, like every older format."""
    engine = _engine(
        lambda: AlphaNetEstimator(8, alpha=0.25, plan=SketchPlan.default_f0(seed=3)),
        n_shards=2,
        backend="serial",
    )
    path = tmp_path / "engine.ckpt"
    engine.save_checkpoint(path)
    envelope = load_envelope(path.read_bytes())
    envelope["format"] = "repro/engine-checkpoint@3"
    _write_unchecked_envelope(path, envelope)
    with pytest.raises(SnapshotError, match="engine-checkpoint@3"):
        Coordinator.load_checkpoint(path)
    with pytest.raises(SnapshotError, match="engine-checkpoint@3"):
        QueryService.from_checkpoint(str(path))

    snapshot = tmp_path / "estimator.snapshot"
    envelope = load_envelope(engine.merged_estimator.to_bytes())
    envelope["format"] = "repro/estimator-snapshot@2"
    _write_unchecked_envelope(snapshot, envelope)
    with pytest.raises(SnapshotError, match="estimator-snapshot@2"):
        from_bytes(snapshot.read_bytes())


def test_version_4_checkpoints_and_version_3_snapshots_are_refused(tmp_path):
    """Files written before the coefficients were derived counter-based
    are refused with their format named: an ``@3`` sketch restored under
    today's derivation would mix two hash functions."""
    engine = _engine(
        lambda: AlphaNetEstimator(8, alpha=0.25, plan=SketchPlan.default_f0(seed=3)),
        n_shards=2,
        backend="serial",
    )
    path = tmp_path / "engine.ckpt"
    engine.save_checkpoint(path)
    envelope = load_envelope(path.read_bytes())
    envelope["format"] = "repro/engine-checkpoint@4"
    _write_unchecked_envelope(path, envelope)
    with pytest.raises(SnapshotError, match="engine-checkpoint@4"):
        Coordinator.load_checkpoint(path)
    with pytest.raises(SnapshotError, match="engine-checkpoint@4"):
        QueryService.from_checkpoint(str(path))

    snapshot = tmp_path / "estimator.snapshot"
    envelope = load_envelope(KMVSketch(k=8, seed=1).to_bytes())
    envelope["format"] = "repro/estimator-snapshot@3"
    _write_unchecked_envelope(snapshot, envelope)
    with pytest.raises(SnapshotError, match="estimator-snapshot@3"):
        from_bytes(snapshot.read_bytes())


def test_checkpoint_schema_check_flags_any_extra_key(tmp_path):
    """A checkpoint envelope carrying a key beyond format, config and
    merged (a per-shard list, say) fails the ART001 artifact check."""
    from repro.lint.artifacts import check_snapshot_file

    engine = _engine(lambda: ExactBaseline(n_columns=8), n_shards=2, backend="serial")
    path = tmp_path / "engine.ckpt"
    engine.save_checkpoint(path)
    assert check_snapshot_file(path) == []
    envelope = load_envelope(path.read_bytes())
    envelope["shards"] = []
    _write_unchecked_envelope(path, envelope)
    findings = check_snapshot_file(path)
    assert [finding.rule for finding in findings] == ["ART001"]
    assert "'shards'" in findings[0].message


def test_failed_save_keeps_the_previous_checkpoint(tmp_path, monkeypatch):
    """A save whose write stops half-way (disk full) leaves the checkpoint
    it was replacing loadable, and no partial file behind."""
    engine = _engine(lambda: ExactBaseline(n_columns=8), n_shards=2, backend="serial")
    path = tmp_path / "engine.ckpt"
    engine.save_checkpoint(path)
    engine.ingest(RowStream(Dataset.random(n_rows=300, n_columns=8, seed=5)))
    real_write_bytes = Path.write_bytes

    def write_half_then_fail(self, data):
        real_write_bytes(self, data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(Path, "write_bytes", write_half_then_fail)
    with pytest.raises(OSError):
        engine.save_checkpoint(path)
    monkeypatch.undo()
    assert QueryService.from_checkpoint(str(path)).estimator.rows_observed == 500
    assert list(tmp_path.iterdir()) == [path]


# -- transient-state / pickling regression --------------------------------------


def test_query_service_pickle_never_carries_cache_or_recorders():
    """The LRU cache, hit counters and latency histogram stay per-process."""
    estimator = ExactBaseline(n_columns=4).observe(
        Dataset.random(n_rows=50, n_columns=4, seed=7)
    )
    service = QueryService(estimator)
    query = ColumnQuery.of([0, 2], 4)
    service.estimate_fp(query, 0)
    service.estimate_fp(query, 0)
    assert service.cache_info().hits == 1
    assert service.cache_info().size > 0
    assert service.stats() != {}
    clone = pickle.loads(pickle.dumps(service))
    info = clone.cache_info()
    assert (info.hits, info.misses, info.size, info.invalidations) == (0, 0, 0, 0)
    # The latency histogram resets too; only the (zeroed) cache entry remains.
    assert set(clone.stats()) == {"cache"}
    # The summary itself survives: the clone answers identically.
    assert clone.estimate_fp(query, 0) == service.estimate_fp(query, 0)


def test_process_backend_ships_estimator_state_not_estimators(monkeypatch):
    """The process pool must never pickle an estimator: workers receive
    snapshot bytes and a row block, and hand snapshot bytes back (no live
    object — RNG, caches and all — crosses the process boundary)."""

    def forbid_estimator_pickle(self):
        raise AssertionError(
            "an estimator must not be pickled by the process backend"
        )

    # Estimators define no __getstate__, and object has none before 3.11.
    monkeypatch.setattr(
        UniformSampleEstimator, "__getstate__", forbid_estimator_pickle,
        raising=False,
    )
    monkeypatch.setattr(
        UniformSampleEstimator, "__reduce__", forbid_estimator_pickle
    )
    data = Dataset.random(n_rows=300, n_columns=6, seed=3)
    serial = Coordinator(
        lambda: UniformSampleEstimator(6, 32, seed=8), n_shards=2, backend="serial"
    )
    serial.ingest(RowStream(data))
    parallel = Coordinator(
        lambda: UniformSampleEstimator(6, 32, seed=8),
        n_shards=2,
        backend="processes",
    )
    report = parallel.ingest(RowStream(data))
    assert report.rows_total == 300
    query = ColumnQuery.of([0, 3], 6)
    assert parallel.merged_estimator.estimate_frequency(query, (0, 1)) == (
        serial.merged_estimator.estimate_frequency(query, (0, 1))
    )


class _UnregisteredKMV(KMVSketch):
    """A sketch subclass that is deliberately NOT in the snapshot registry."""


class _UnregisteredStableLp(StableLpSketch):
    """A sketch subclass that is deliberately NOT in the snapshot registry."""


def _unregistered_plan() -> SketchPlan:
    return SketchPlan(
        moment_factory=lambda index: _UnregisteredStableLp(
            p=1.0, width=8, depth=1, seed=index
        )
    )


def test_worker_backends_refuse_unregistered_components():
    """An estimator whose nested sketches cannot snapshot still ingests
    serially, but the worker backends ship snapshot bytes only (never a
    pickled estimator), so they refuse it before any worker starts."""
    from repro.errors import EstimationError

    data = Dataset.random(n_rows=200, n_columns=6, seed=4)

    def factory():
        return AlphaNetEstimator(6, alpha=0.3, plan=_unregistered_plan())

    serial = Coordinator(factory, n_shards=2, backend="serial")
    assert serial.ingest(RowStream(data)).rows_total == 200
    for backend in ("processes", "sockets"):
        engine = Coordinator(factory, n_shards=2, backend=backend)
        with pytest.raises(EstimationError, match="snapshot bytes"):
            engine.ingest(RowStream(data))


def _fed_kmv(index: int) -> KMVSketch:
    sketch = KMVSketch(k=16, seed=index)
    sketch.update(index)
    return sketch


@pytest.mark.parametrize(
    ("plan", "message"),
    [
        (
            SketchPlan(distinct_factory=lambda index: KMVSketch(k=16 + index % 2, seed=index)),
            "share k",
        ),
        (
            SketchPlan(
                point_factory=lambda index: CountMinSketch(
                    width=32, depth=3 + index % 2, seed=index
                )
            ),
            "share width, depth",
        ),
        (
            SketchPlan(
                point_factory=lambda index: CountMinSketch(
                    width=32 + index % 2, depth=3, seed=index
                )
            ),
            "share width, depth",
        ),
        (
            SketchPlan(distinct_factory=lambda index: _UnregisteredKMV(k=16, seed=index)),
            "KMVSketch sketches only, got a _UnregisteredKMV",
        ),
        (
            SketchPlan(point_factory=lambda index: KMVSketch(k=16, seed=index)),
            "CountMinSketch sketches only, got a KMVSketch",
        ),
        (SketchPlan(distinct_factory=_fed_kmv), "empty KMVSketch sketches only"),
    ],
    ids=["kmv-k", "countmin-depth", "countmin-width", "kmv-subclass", "countmin-class", "non-empty"],
)
def test_alpha_net_refuses_sketches_it_cannot_stack(plan, message):
    """A bank stacks empty sketches of exactly one class and configuration;
    anything else is refused at construction."""
    from repro.errors import InvalidParameterError

    with pytest.raises(InvalidParameterError, match=message):
        AlphaNetEstimator(6, alpha=0.3, plan=plan)


# -- scenario checkpoint bundles -------------------------------------------------


@pytest.mark.parametrize("name", scenario_names())
def test_scenario_checkpoint_replay_is_exact(tmp_path, name):
    """--quick build → restore replays byte-identical metrics and tables."""
    bundle = tmp_path / f"{name}.ckpt"
    build = run_experiment(
        name, RunParams(quick=True, checkpoint_to=str(bundle))
    )
    restored = run_experiment(
        name, RunParams(quick=True, from_checkpoint=str(bundle))
    )
    assert restored.metrics == build.metrics
    assert restored.tables == build.tables
    for entry in build.checkpoints:
        assert entry["bytes_on_disk"] == (bundle / entry["file"]).stat().st_size
        assert entry["summary_bits"] >= 0
    payload = build.to_dict()
    if build.checkpoints:
        assert "checkpoints" in payload


def test_bundle_refuses_mismatched_parameters(tmp_path):
    """A --quick bundle cannot be replayed as a full run (and vice versa)."""
    bundle = tmp_path / "usample.ckpt"
    run_experiment(
        "usample-accuracy", RunParams(quick=True, checkpoint_to=str(bundle))
    )
    with pytest.raises(SnapshotError):
        run_experiment(
            "usample-accuracy", RunParams(quick=False, from_checkpoint=str(bundle))
        )
    with pytest.raises(SnapshotError):
        run_experiment(
            "bias-audit", RunParams(quick=True, from_checkpoint=str(bundle))
        )


def test_checkpoint_and_restore_params_are_mutually_exclusive(tmp_path):
    """RunParams refuses a run that both writes and reads a bundle."""
    from repro.errors import InvalidParameterError

    with pytest.raises(InvalidParameterError):
        RunParams(
            checkpoint_to=str(tmp_path / "a"), from_checkpoint=str(tmp_path / "b")
        ).validate()
