"""Declarative failure-handling policies for the transport layer.

Three independent knobs, each a frozen dataclass with ``to_dict`` /
``from_dict`` (checkpoint manifests) and ``parse`` (CLI strings):

* :class:`RetryPolicy` — how often to re-attempt a failed connect or RPC
  and how long to wait between attempts.  Backoff is exponential with
  *seeded* jitter (``random.Random(seed)``), so two runs with the same
  config produce the same delay schedule — the DET rules stay clean and
  fault-injection tests are reproducible down to the sleep pattern.
* :class:`DeadlinePolicy` — per-RPC timeouts.  A worker that stops
  answering is indistinguishable from a dead one; deadlines turn hangs
  into detectable failures the :class:`~.supervisor.WorkerSupervisor`
  can recover from.
* :class:`RecoveryPolicy` — what to do once a failure is detected:
  ``respawn`` (reconnect to the same worker address), ``reassign`` the
  shard to a surviving worker address, or ``fail-fast`` (the pre-policy
  behavior: tear down the pool and raise).  ``on_exhausted`` picks
  between raising and degrading to the surviving shards once
  ``max_recoveries`` is spent.

:class:`ResilienceConfig` bundles the three and is what
``EngineConfig`` / the :class:`~repro.engine.coordinator.Coordinator`
carry around.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Iterator

from ...errors import InvalidParameterError

__all__ = [
    "DeadlinePolicy",
    "EXHAUSTION_ACTIONS",
    "RECOVERY_MODES",
    "RecoveryPolicy",
    "ResilienceConfig",
    "RetryPolicy",
]

#: Recovery modes understood by the socket worker pool.
RECOVERY_MODES = ("respawn", "reassign", "fail-fast")

#: What to do when ``max_recoveries`` is exhausted.
EXHAUSTION_ACTIONS = ("fail", "degrade")


def _parse_spec(spec: str, primary: str, aliases: dict[str, str]) -> dict[str, str]:
    """Split ``"value,key=value,..."`` into canonical field → raw string.

    The first comma-separated token may omit ``key=`` and then binds to
    ``primary``; every other token must be ``key=value`` with ``key`` in
    ``aliases`` (which maps accepted spellings to canonical field names).
    """
    fields: dict[str, str] = {}
    for index, token in enumerate(part.strip() for part in spec.split(",")):
        if not token:
            continue
        if "=" not in token:
            if index > 0 or primary in fields:
                raise InvalidParameterError(
                    f"malformed policy spec {spec!r}: token {token!r} is not "
                    "key=value"
                )
            fields[primary] = token
            continue
        key, _, value = token.partition("=")
        key = key.strip().replace("-", "_")
        if key not in aliases:
            known = ", ".join(sorted(set(aliases)))
            raise InvalidParameterError(
                f"unknown key {key!r} in policy spec {spec!r}; known keys: "
                f"{known}"
            )
        fields[aliases[key]] = value.strip()
    return fields


def _coerce(fields: dict[str, str], types: dict[str, type]) -> dict:
    coerced = {}
    for name, raw in fields.items():
        # Tolerant read: manifests written by a newer engine may carry
        # fields this build does not know.
        kind = types.get(name)
        if kind is None:
            continue
        try:
            coerced[name] = kind(raw)
        except ValueError as error:
            raise InvalidParameterError(
                f"policy field {name!r} expects {kind.__name__}, got {raw!r}"
            ) from error
    return coerced


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with seeded exponential backoff.

    ``delays()`` yields the sleep before each re-attempt: attempt 1 is
    immediate, attempt ``k`` (k >= 2) sleeps
    ``min(base_delay * multiplier**(k-2), max_delay)`` stretched by up to
    ``jitter`` (a fraction) of seeded-random extra.  The schedule is a
    pure function of the policy fields — replaying a run replays the
    exact same waits.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.1
    seed: int = 0

    _ALIASES = {
        "attempts": "max_attempts",
        "max_attempts": "max_attempts",
        "base": "base_delay",
        "base_delay": "base_delay",
        "multiplier": "multiplier",
        "max_delay": "max_delay",
        "jitter": "jitter",
        "seed": "seed",
    }
    _TYPES = {
        "max_attempts": int,
        "base_delay": float,
        "multiplier": float,
        "max_delay": float,
        "jitter": float,
        "seed": int,
    }

    def validate(self) -> "RetryPolicy":
        """Raise :class:`InvalidParameterError` on nonsense; return self."""
        if self.max_attempts < 1:
            raise InvalidParameterError(
                f"retry max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise InvalidParameterError("retry delays must be >= 0")
        if self.multiplier < 1.0:
            raise InvalidParameterError(
                f"retry multiplier must be >= 1, got {self.multiplier}"
            )
        if self.jitter < 0:
            raise InvalidParameterError(
                f"retry jitter must be >= 0, got {self.jitter}"
            )
        return self

    def delays(self) -> Iterator[float]:
        """The deterministic sleep schedule between attempts."""
        rng = random.Random(self.seed)
        delay = self.base_delay
        for _ in range(self.max_attempts - 1):
            stretch = 1.0 + self.jitter * rng.random() if self.jitter else 1.0
            yield min(delay * stretch, self.max_delay)
            delay = min(delay * self.multiplier, self.max_delay)

    def to_dict(self) -> dict:
        """JSON-able view, inverse of :meth:`from_dict`."""
        return {
            "max_attempts": self.max_attempts,
            "base_delay": self.base_delay,
            "multiplier": self.multiplier,
            "max_delay": self.max_delay,
            "jitter": self.jitter,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RetryPolicy":
        """Rebuild from a :meth:`to_dict` payload (unknown keys ignored)."""
        return cls(**_coerce(
            {k: str(v) for k, v in payload.items()}, cls._TYPES
        )).validate()

    @classmethod
    def parse(cls, spec: str) -> "RetryPolicy":
        """Parse a CLI spec: ``"5"`` or ``"attempts=5,base=0.1,seed=7"``."""
        fields = _parse_spec(spec, "max_attempts", cls._ALIASES)
        return cls(**_coerce(fields, cls._TYPES)).validate()


@dataclass(frozen=True)
class DeadlinePolicy:
    """Per-RPC timeouts, in seconds.

    ``connect`` bounds one socket connect attempt (the
    :class:`RetryPolicy` bounds how many attempts are made); ``ingest``
    bounds every other socket send or receive of a shard connection;
    ``snapshot`` bounds the wait for ``snapshot_state`` (snapshots
    serialize the worker's whole estimator, so they get the widest
    budget).
    """

    connect: float = 10.0
    ingest: float = 120.0
    snapshot: float = 300.0

    _ALIASES = {
        "connect": "connect",
        "ingest": "ingest",
        "ingest_block": "ingest",
        "snapshot": "snapshot",
    }
    _TYPES = {"connect": float, "ingest": float, "snapshot": float}

    def validate(self) -> "DeadlinePolicy":
        """Raise :class:`InvalidParameterError` on nonsense; return self."""
        for name in ("connect", "ingest", "snapshot"):
            if getattr(self, name) <= 0:
                raise InvalidParameterError(
                    f"rpc deadline {name!r} must be > 0 seconds, got "
                    f"{getattr(self, name)}"
                )
        return self

    def to_dict(self) -> dict:
        """JSON-able view, inverse of :meth:`from_dict`."""
        return {
            "connect": self.connect,
            "ingest": self.ingest,
            "snapshot": self.snapshot,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DeadlinePolicy":
        """Rebuild from a :meth:`to_dict` payload."""
        return cls(**_coerce(
            {k: str(v) for k, v in payload.items()}, cls._TYPES
        )).validate()

    @classmethod
    def parse(cls, spec: str) -> "DeadlinePolicy":
        """Parse a CLI spec: ``"30"`` (all RPCs) or ``"connect=5,ingest=60"``."""
        stripped = spec.strip()
        if stripped and "=" not in stripped and "," not in stripped:
            try:
                seconds = float(stripped)
            except ValueError as error:
                raise InvalidParameterError(
                    f"malformed rpc-timeout spec {spec!r}"
                ) from error
            return cls(
                connect=seconds, ingest=seconds, snapshot=seconds
            ).validate()
        fields = _parse_spec(spec, "connect", cls._ALIASES)
        return cls(**_coerce(fields, cls._TYPES)).validate()


@dataclass(frozen=True)
class RecoveryPolicy:
    """What the pool does when a shard worker dies or breaches a deadline.

    ``mode``:

    * ``"respawn"`` (default) — reconnect the socket to the same
      address, reload the shard's pristine replica and replay every
      block of its current segment.
    * ``"reassign"`` — if the original address stays down, move the
      shard's connection to a surviving worker address (each connection
      owns an isolated ``ShardWorkerState``, so one server can host
      several shards).
    * ``"fail-fast"`` — the pre-resilience contract: close the pool and
      raise :class:`~repro.errors.EstimationError`.
    """

    mode: str = "respawn"
    max_recoveries: int = 2
    on_exhausted: str = "fail"

    _ALIASES = {
        "mode": "mode",
        "max": "max_recoveries",
        "max_recoveries": "max_recoveries",
        "on_exhausted": "on_exhausted",
    }
    _TYPES = {
        "mode": str,
        "max_recoveries": int,
        "on_exhausted": str,
    }

    def validate(self) -> "RecoveryPolicy":
        """Raise :class:`InvalidParameterError` on nonsense; return self."""
        if self.mode not in RECOVERY_MODES:
            raise InvalidParameterError(
                f"unknown recovery mode {self.mode!r}; choose from "
                f"{', '.join(RECOVERY_MODES)}"
            )
        if self.max_recoveries < 0:
            raise InvalidParameterError(
                f"max_recoveries must be >= 0, got {self.max_recoveries}"
            )
        if self.on_exhausted not in EXHAUSTION_ACTIONS:
            raise InvalidParameterError(
                f"unknown on_exhausted action {self.on_exhausted!r}; choose "
                f"from {', '.join(EXHAUSTION_ACTIONS)}"
            )
        return self

    @property
    def fail_fast(self) -> bool:
        """True when failures should surface immediately (no supervision)."""
        return self.mode == "fail-fast"

    def to_dict(self) -> dict:
        """JSON-able view, inverse of :meth:`from_dict`."""
        return {
            "mode": self.mode,
            "max_recoveries": self.max_recoveries,
            "on_exhausted": self.on_exhausted,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RecoveryPolicy":
        """Rebuild from a :meth:`to_dict` payload (unknown keys ignored)."""
        return cls(**_coerce(
            {k: str(v) for k, v in payload.items()}, cls._TYPES
        )).validate()

    @classmethod
    def parse(cls, spec: str) -> "RecoveryPolicy":
        """Parse a CLI spec: ``"reassign"`` or ``"respawn,max=3,on-exhausted=degrade"``."""
        fields = _parse_spec(spec, "mode", cls._ALIASES)
        return cls(**_coerce(fields, cls._TYPES)).validate()


@dataclass(frozen=True)
class ResilienceConfig:
    """The full failure-handling posture of one engine instance."""

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    deadlines: DeadlinePolicy = field(default_factory=DeadlinePolicy)
    recovery: RecoveryPolicy = field(default_factory=RecoveryPolicy)

    def validate(self) -> "ResilienceConfig":
        """Validate every component policy; return self for chaining."""
        self.retry.validate()
        self.deadlines.validate()
        self.recovery.validate()
        return self

    def to_dict(self) -> dict:
        """JSON-able view stored in checkpoint manifests and result JSON."""
        return {
            "retry": self.retry.to_dict(),
            "deadlines": self.deadlines.to_dict(),
            "recovery": self.recovery.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ResilienceConfig":
        """Rebuild from a :meth:`to_dict` payload (missing keys → defaults)."""
        return cls(
            retry=RetryPolicy.from_dict(payload.get("retry", {})),
            deadlines=DeadlinePolicy.from_dict(payload.get("deadlines", {})),
            recovery=RecoveryPolicy.from_dict(payload.get("recovery", {})),
        ).validate()

    def with_cli_overrides(
        self,
        retry: str | None = None,
        rpc_timeout: str | None = None,
        recovery: str | None = None,
    ) -> "ResilienceConfig":
        """Apply ``--retry`` / ``--rpc-timeout`` / ``--recovery`` specs."""
        config = self
        if retry is not None:
            config = replace(config, retry=RetryPolicy.parse(retry))
        if rpc_timeout is not None:
            config = replace(config, deadlines=DeadlinePolicy.parse(rpc_timeout))
        if recovery is not None:
            config = replace(config, recovery=RecoveryPolicy.parse(recovery))
        return config.validate()
