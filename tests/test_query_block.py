"""Differential test harness for the vectorized query-path kernels.

Every batch query kernel added alongside ``estimate_block`` must answer
exactly what the scalar path answers (or be answer-equivalent with the
divergence documented in ``docs/architecture.md``, *Batch query kernels*).
This harness replays identical workloads through both paths on
``state_dict()``-identical summaries, across several Count-Min table
shapes, several seeds, and the adversarial batch shapes of the query tier:
empty batches, singletons, duplicate keys inside one batch, and keys the
summary never observed.  The same differential treatment, batch shapes
included, covers the estimator-level ``estimate_frequency_block`` paths and the
``QueryService.answer_block`` cache semantics.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AlphaNetEstimator,
    ColumnQuery,
    Coordinator,
    Dataset,
    EstimationError,
    ExactBaseline,
    InvalidParameterError,
    QueryRequest,
    QueryService,
    RowStream,
    SketchPlan,
    UniformSampleEstimator,
)
from repro.core.estimator import pattern_words
from repro.sketches import CountMinSketch

# ---------------------------------------------------------------------------
# shared workloads
# ---------------------------------------------------------------------------

WIDTH = 3  # symbols per item pattern
ALPHABET = 5  # observed symbols are drawn from [0, ALPHABET)
#: The sketches' key of a pattern: its index over symbols [0, ALPHABET + 4),
#: wide enough for every batch below.
KEY_PLACES = (ALPHABET + 4) ** np.arange(WIDTH - 1, -1, -1)


def _workload(seed: int, n_rows: int = 400) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, ALPHABET, size=(n_rows, WIDTH)).astype(np.int64)


def _query_batches(seed: int) -> dict[str, np.ndarray]:
    """Adversarial batch shapes: the names say what each one stresses."""
    rng = np.random.default_rng(seed + 1000)
    observed = _workload(seed)
    mixed = rng.integers(0, ALPHABET + 2, size=(64, WIDTH)).astype(np.int64)
    return {
        "empty": np.empty((0, WIDTH), dtype=np.int64),
        "singleton": observed[:1].copy(),
        "duplicates": np.repeat(observed[3:7], 4, axis=0),
        # Symbols >= ALPHABET never appear in the workload.
        "never_observed": np.full((8, WIDTH), ALPHABET + 3, dtype=np.int64),
        "mixed": mixed,
    }


#: Count-Min table shapes that stress the gather differently: a width-2
#: table where every query collides, a single row (no minimum taken), a
#: deep wide table, and the shape ``from_error`` sizes.
POINT_FACTORIES = [
    pytest.param(lambda seed: CountMinSketch(width=29, depth=5, seed=seed), id="countmin"),
    pytest.param(lambda seed: CountMinSketch(width=17, depth=1, seed=seed), id="countmin-depth1"),
    pytest.param(lambda seed: CountMinSketch(width=2, depth=4, seed=seed), id="countmin-width2"),
    pytest.param(lambda seed: CountMinSketch(width=512, depth=9, seed=seed), id="countmin-deep"),
    pytest.param(
        lambda seed: CountMinSketch.from_error(epsilon=0.1, delta=0.05, seed=seed),
        id="countmin-from-error",
    ),
]

SEEDS = [0, 7, 1234]


def _built_pair(factory, seed):
    """Two ``state_dict()``-identical summaries over the same workload."""
    original = factory(seed)
    for key in (_workload(seed) @ KEY_PLACES).tolist():
        original.update(key)
    clone = factory(seed)
    clone.load_state_dict(original.state_dict())
    assert clone.state_dict().keys() == original.state_dict().keys()
    return original, clone


# ---------------------------------------------------------------------------
# sketch-level differential: estimate_block vs estimate
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("factory", POINT_FACTORIES)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("batch_name", ["empty", "singleton", "duplicates", "never_observed", "mixed"])
def test_estimate_block_matches_scalar(factory, seed, batch_name):
    """Block answers on a restored clone equal scalar answers, bit for bit."""
    scalar_sketch, block_sketch = _built_pair(factory, seed)
    batch = _query_batches(seed)[batch_name] @ KEY_PLACES
    keys = batch.tolist()
    expected = np.array(
        [scalar_sketch.estimate(key) for key in keys], dtype=np.float64
    )
    answered = block_sketch.estimate_block(batch)
    assert answered.dtype == np.float64
    assert answered.shape == (len(keys),)
    assert np.array_equal(answered, expected)


@pytest.mark.parametrize("factory", POINT_FACTORIES)
def test_estimate_block_accepts_key_lists(factory):
    """A list of Python-int keys answers identically to the ndarray block."""
    sketch, _ = _built_pair(factory, seed=3)
    batch = _query_batches(3)["mixed"] @ KEY_PLACES
    assert np.array_equal(
        sketch.estimate_block(batch.tolist()), sketch.estimate_block(batch)
    )


@pytest.mark.parametrize("factory", POINT_FACTORIES)
def test_estimate_block_on_empty_summary(factory):
    """A never-updated summary answers every batch entry like the scalar path."""
    sketch = factory(11)
    batch = _query_batches(11)["mixed"] @ KEY_PLACES
    expected = np.array(
        [sketch.estimate(key) for key in batch.tolist()], dtype=np.float64
    )
    assert np.array_equal(sketch.estimate_block(batch), expected)
    assert sketch.estimate_block(np.empty(0, dtype=np.int64)).shape == (0,)
    assert sketch.estimate_block([]).shape == (0,)


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    data=st.data(),
)
@settings(max_examples=25, deadline=None)
def test_estimate_block_fuzz(seed, data):
    """Random workloads and random batches: block == scalar on Count-Min."""
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 4, size=(60, WIDTH)) @ KEY_PLACES
    m = data.draw(st.integers(min_value=0, max_value=24))
    batch = rng.integers(0, 6, size=(m, WIDTH)) @ KEY_PLACES
    sketch = CountMinSketch(width=13, depth=3, seed=seed % 97)
    sketch.update_block(keys)
    expected = np.array(
        [sketch.estimate(key) for key in batch.tolist()],
        dtype=np.float64,
    )
    assert np.array_equal(sketch.estimate_block(batch), expected)


def test_estimate_block_tracks_a_planted_heavy_item():
    """Sanity anchor: the block answer sees a planted heavy item, and
    Count-Min never reports less than its true count."""
    sketch = CountMinSketch(width=64, depth=7, seed=1)
    heavy = int(np.array([1, 1, 1]) @ KEY_PLACES)
    for _ in range(300):
        sketch.update(heavy)
    for noise in range(40):
        sketch.update(int(np.array([0, noise % 3, 2]) @ KEY_PLACES))
    (estimate,) = sketch.estimate_block(np.array([heavy], dtype=np.int64))
    assert 300 <= estimate <= 340


# ---------------------------------------------------------------------------
# estimator-level: estimate_frequency_block vs estimate_frequency
# ---------------------------------------------------------------------------

EST_D = 6
EST_ROWS = Dataset.random(n_rows=500, n_columns=EST_D, seed=21).to_array()
EST_QUERY = ColumnQuery.of([0, 2, 5], EST_D)
#: The estimators' alphabet holds every batch's symbols, so the batches
#: are answered, not refused; the rows themselves are binary.
EST_ALPHABET = ALPHABET + 4


def _estimators():
    alpha = AlphaNetEstimator(
        EST_D,
        alpha=0.3,
        plan=SketchPlan.default_point(seed=5),
        alphabet_size=EST_ALPHABET,
    ).observe(EST_ROWS)
    usample = UniformSampleEstimator(
        EST_D, sample_size=128, alphabet_size=EST_ALPHABET, seed=13
    ).observe(EST_ROWS)
    exact = ExactBaseline(EST_D, alphabet_size=EST_ALPHABET).observe(EST_ROWS)
    return [
        pytest.param(alpha, id="alpha-net"),
        pytest.param(usample, id="uniform-sample"),
        pytest.param(exact, id="exact"),
    ]


PATTERNS = [(0, 1, 0), (1, 1, 1), (0, 0, 0), (0, 1, 0), (1, 0, 1), (2, 2, 2)]


@pytest.mark.parametrize("estimator", _estimators())
def test_estimate_frequency_block_matches_scalar(estimator):
    expected = np.array(
        [estimator.estimate_frequency(EST_QUERY, p) for p in PATTERNS],
        dtype=np.float64,
    )
    block = estimator.estimate_frequency_block(EST_QUERY, PATTERNS)
    assert np.array_equal(block, expected)
    as_array = estimator.estimate_frequency_block(
        EST_QUERY, np.array(PATTERNS, dtype=np.int64)
    )
    assert np.array_equal(as_array, expected)
    assert estimator.estimate_frequency_block(EST_QUERY, []).shape == (0,)


@pytest.mark.parametrize("estimator", _estimators())
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("batch_name", ["empty", "singleton", "duplicates", "never_observed", "mixed"])
def test_estimate_frequency_block_matches_scalar_on_adversarial_batches(
    estimator, seed, batch_name
):
    """The sketch-level batch shapes, asked of each estimator's block path."""
    assert len(EST_QUERY) == WIDTH  # the batches' patterns fit the query
    batch = _query_batches(seed)[batch_name]
    expected = np.array(
        [estimator.estimate_frequency(EST_QUERY, tuple(row)) for row in batch.tolist()],
        dtype=np.float64,
    )
    answered = estimator.estimate_frequency_block(EST_QUERY, batch)
    assert answered.shape == (batch.shape[0],)
    assert np.array_equal(answered, expected)


@pytest.mark.parametrize("estimator", _estimators())
def test_estimate_frequency_block_rejects_bad_patterns(estimator):
    # The block path refuses a wrong-length pattern as every scalar path does.
    with pytest.raises(EstimationError, match="does not match query size"):
        estimator.estimate_frequency_block(EST_QUERY, [(0, 1)])
    with pytest.raises(EstimationError, match="2-D"):
        estimator.estimate_frequency_block(
            EST_QUERY, np.zeros((2, 2, 2), dtype=np.int64)
        )


@pytest.mark.parametrize("estimator", _estimators())
def test_estimate_frequency_block_refuses_symbols_it_cannot_hold(estimator):
    """A non-integer symbol is refused, not truncated, and a symbol outside
    [0, Q) is refused, not counted as absent (nor aliased onto another
    pattern's key)."""
    with pytest.raises(EstimationError, match="not an integer"):
        estimator.estimate_frequency_block(EST_QUERY, [(0.7, 1, 0)])
    with pytest.raises(EstimationError, match="integers"):
        estimator.estimate_frequency_block(EST_QUERY, np.array([[0.7, 1.0, 0.0]]))
    for outside in ((0, EST_ALPHABET, 1), (0, -1, 1)):
        with pytest.raises(EstimationError, match="outside the alphabet"):
            estimator.estimate_frequency_block(EST_QUERY, [outside])
        with pytest.raises(EstimationError, match="outside the alphabet"):
            estimator.estimate_frequency(EST_QUERY, outside)


def test_query_service_refuses_symbols_it_cannot_hold():
    """Every service entry point refuses what the estimators refuse."""
    _, service = _service(cache_size=0)
    with pytest.raises(EstimationError, match="not an integer"):
        QueryRequest.frequency(SVC_QUERY, (0.7, 1, 0))
    with pytest.raises(EstimationError, match="not an integer"):
        service.estimate_frequency(SVC_QUERY, (0, 1.5, 0))
    with pytest.raises(EstimationError, match="outside the alphabet"):
        service.estimate_frequency(SVC_QUERY, (0, 2, 0))
    with pytest.raises(EstimationError, match="outside the alphabet"):
        service.answer_block([QueryRequest.frequency(SVC_QUERY, (0, 1, 2))])


def test_pattern_words_normalisation():
    assert pattern_words([(0, 1), (1, 0)]) == [(0, 1), (1, 0)]
    assert pattern_words(np.array([[0, 1], [1, 0]], dtype=np.int64)) == [
        (0, 1),
        (1, 0),
    ]
    with pytest.raises(EstimationError, match="2-D"):
        pattern_words(np.zeros(3, dtype=np.int64))


def test_uniform_sample_block_raises_like_scalar_when_empty():
    estimator = UniformSampleEstimator(
        EST_D, sample_size=16, alphabet_size=EST_ALPHABET, seed=1
    )
    with pytest.raises(EstimationError, match="no rows observed"):
        estimator.estimate_frequency_block(EST_QUERY, PATTERNS)
    # ...but an empty batch never touches the sampler, as the scalar loop
    # over zero patterns never would.
    assert estimator.estimate_frequency_block(EST_QUERY, []).shape == (0,)


# ---------------------------------------------------------------------------
# QueryService.answer_block: answers, cache interaction, invalidation
# ---------------------------------------------------------------------------

SVC_D = 6
SVC_DATA = Dataset.random(n_rows=600, n_columns=SVC_D, seed=31)
SVC_QUERY = ColumnQuery.of([0, 2, 4], SVC_D)
SVC_QUERY_B = ColumnQuery.of([1, 3], SVC_D)


def _service(cache_size: int = 64):
    engine = Coordinator(
        lambda: ExactBaseline(n_columns=SVC_D), n_shards=2, backend="serial"
    )
    engine.ingest(RowStream(SVC_DATA))
    return engine, engine.query_service(cache_size=cache_size)


def _requests() -> list[QueryRequest]:
    return [
        QueryRequest.frequency(SVC_QUERY, (0, 1, 0)),
        QueryRequest.frequency(SVC_QUERY, (1, 1, 1)),
        QueryRequest.frequency(SVC_QUERY_B, (0, 0)),
        QueryRequest.fp(SVC_QUERY, 0),
        QueryRequest.heavy_hitters(SVC_QUERY, 0.05),
        QueryRequest.frequency(SVC_QUERY, (0, 1, 0)),  # in-batch duplicate
    ]


def _scalar_replay(service: QueryService, requests) -> list:
    answers = []
    for request in requests:
        if request.kind == "fp":
            answers.append(service.estimate_fp(request.query, request.p))
        elif request.kind == "frequency":
            answers.append(
                service.estimate_frequency(request.query, request.pattern)
            )
        else:
            answers.append(
                service.heavy_hitters(request.query, request.phi, request.p)
            )
    return answers


def test_answer_block_matches_scalar_answers():
    _, batch_service = _service()
    _, scalar_service = _service()
    requests = _requests()
    assert batch_service.answer_block(requests) == _scalar_replay(
        scalar_service, requests
    )


def test_answer_block_counts_hits_and_misses_like_scalar_replay():
    _, service = _service()
    requests = _requests()
    service.answer_block(requests)
    first = service.cache_info()
    # 5 unique keys miss; the in-batch duplicate hits, as a scalar replay
    # (which caches the first occurrence) would have hit.
    assert first.misses == 5 and first.hits == 1
    # A scalar replay of the same batch is now all cache hits.
    _scalar_replay(service, requests)
    second = service.cache_info()
    assert second.misses == 5 and second.hits == 1 + len(requests)


def test_scalar_calls_prefill_the_batch_path():
    _, service = _service()
    requests = _requests()
    _scalar_replay(service, requests)
    before = service.cache_info()
    answers = service.answer_block(requests)
    after = service.cache_info()
    assert after.misses == before.misses  # nothing recomputed
    assert after.hits == before.hits + len(requests)
    assert answers == _scalar_replay(service, requests)


def test_answer_block_heavy_hitter_results_are_copies():
    _, service = _service()
    request = QueryRequest.heavy_hitters(SVC_QUERY, 0.05)
    first, second = (
        service.answer_block([request])[0],
        service.answer_block([request])[0],
    )
    assert first == second
    first.clear()
    assert service.answer_block([request])[0] == second


def test_answer_block_ingest_invalidates_cache():
    """Version-pinning regression: a post-batch ingest drops every cached
    answer, and the next batch recomputes against the grown summary."""
    rows = SVC_DATA.to_array()
    engine = Coordinator(
        lambda: ExactBaseline(n_columns=SVC_D), n_shards=2, backend="serial"
    )
    engine.ingest(RowStream.from_rows(rows[:300].tolist(), SVC_D))
    service = engine.query_service(cache_size=64)
    request = QueryRequest.fp(SVC_QUERY, 1)
    stale = service.answer_block([request])[0]
    assert stale == 300.0
    engine.ingest(RowStream.from_rows(rows[300:].tolist(), SVC_D))
    fresh = service.answer_block([request])[0]
    assert fresh == 600.0
    info = service.cache_info()
    assert info.invalidations == 1
    assert info.misses == 2 and info.hits == 0


def test_answer_block_with_caching_disabled():
    """cache_size=0: every entry computes independently, like scalar calls."""
    _, service = _service(cache_size=0)
    requests = _requests()
    answers = service.answer_block(requests)
    info = service.cache_info()
    assert info.misses == len(requests) and info.hits == 0
    assert answers[0] == answers[5]  # duplicate entries still get answers
    _, scalar_service = _service(cache_size=0)
    assert answers == _scalar_replay(scalar_service, requests)


def test_answer_block_validates_upfront():
    _, service = _service()
    with pytest.raises(InvalidParameterError, match="unknown query kind"):
        service.answer_block([QueryRequest(kind="nope", query=SVC_QUERY)])
    with pytest.raises(InvalidParameterError, match="must set p"):
        service.answer_block([QueryRequest(kind="fp", query=SVC_QUERY)])
    with pytest.raises(InvalidParameterError, match="must set a pattern"):
        service.answer_block([QueryRequest(kind="frequency", query=SVC_QUERY)])
    with pytest.raises(InvalidParameterError, match="must set phi"):
        service.answer_block([QueryRequest(kind="heavy_hitters", query=SVC_QUERY)])
    # A bad entry anywhere in the batch fails before any compute runs.
    info = service.cache_info()
    assert info.misses == 0 and info.hits == 0


def test_answer_block_empty_batch():
    _, service = _service()
    assert service.answer_block([]) == []
    info = service.cache_info()
    assert info.misses == 0 and info.hits == 0


def test_answer_block_latency_recorders_cover_each_kind():
    _, service = _service()
    service.answer_block(_requests())
    stats = service.stats()
    for kind in ("frequency", "fp", "heavy_hitters"):
        assert stats[kind].count >= 1
