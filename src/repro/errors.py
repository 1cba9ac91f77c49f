"""Exception hierarchy for the :mod:`repro` package.

All library-specific errors derive from :class:`ReproError` so that callers
can catch every failure mode of the library with a single ``except`` clause
while still being able to distinguish configuration problems from runtime
estimation problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class InvalidParameterError(ReproError, ValueError):
    """A parameter is outside its documented domain.

    Raised eagerly at construction time (for example an accuracy parameter
    ``epsilon`` outside ``(0, 1)`` or a moment order ``p`` that an estimator
    does not support) so that misconfiguration is detected before any data is
    streamed.
    """


class DimensionError(ReproError, ValueError):
    """A dataset, word, or query has an incompatible shape or dimension."""


class AlphabetError(ReproError, ValueError):
    """A symbol or word does not belong to the declared alphabet ``[Q]``."""


class QueryError(ReproError, ValueError):
    """A column query is malformed (empty, out of range, or duplicated)."""


class EstimationError(ReproError, RuntimeError):
    """An estimator could not produce an answer for a well-formed query.

    Typical causes: querying a sketch that observed no data, or requesting a
    problem the estimator was not configured to answer.
    """


class CodeConstructionError(ReproError, RuntimeError):
    """A code with the requested combinatorial properties could not be built.

    The randomly sampled codes of Lemma 3.2 only exist with high probability;
    when repeated sampling fails to certify the pairwise-intersection
    property this error is raised rather than silently returning a weaker
    code.
    """


class ProtocolError(ReproError, RuntimeError):
    """A communication-game simulation was driven in an invalid order."""


class TransportError(ReproError, RuntimeError):
    """A transport frame or handshake violated the ``repro/transport@2`` protocol.

    Raised by :mod:`repro.engine.transport` when a frame is malformed, carries
    an unknown version tag, or a worker reports a remote failure.  Worker
    *crashes* (a dead process or dropped connection) surface as
    :class:`EstimationError` from the coordinator instead, naming the shard
    index and backend.
    """


class SnapshotError(ReproError, RuntimeError):
    """A serialized summary could not be written or restored.

    Raised by the persistence layer (:mod:`repro.persistence`) when a byte
    payload is not a recognised snapshot (bad magic, wrong format tag,
    unregistered type) or when a state dict fails its schema check.
    """
