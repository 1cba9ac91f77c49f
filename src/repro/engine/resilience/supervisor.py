"""Per-shard recovery bookkeeping and the blessed transport connect path.

The supervision model of the socket worker pool:

* Every block sent to a shard carries a monotone sequence number, and
  the worker drops the connection on any gap in that sequence, so a
  lost block always becomes a recovery.  The pool-side
  :class:`ShardSupervisor` keeps the shard's **basis** — the pristine
  estimator bytes the worker is reloaded from, tagged with the last
  sequence number of the previous segment — plus a **replay buffer** of
  every block sent since.
* On worker death or deadline breach the pool reconnects (or
  reassigns), ``load``\\ s the basis with its sequence number and
  replays the buffered blocks in sequence order.  The estimator then
  observes exactly the rows a serial ingest would have shown it, in the
  same order, so recovery is bit-identical by construction.  The buffer
  holds at most one ``ingest()`` call's rows per shard.

This module also owns the wrapper lint rule PRO009 forces the transport
modules through: :func:`connect_with_retry` (bounded, seeded-backoff
socket connects).
"""

from __future__ import annotations

import socket
import time

from ... import telemetry
from ...errors import TransportError
from . import faults
from .policy import ResilienceConfig

__all__ = [
    "ShardSupervisor",
    "WorkerSupervisor",
    "connect_with_retry",
]

_RETRIES_HELP = "Transport RPC retries by backend and operation."
_RECOVERIES_HELP = "Shard worker recoveries (respawn/reconnect/reassign)."


def count_retry(backend: str, op: str) -> None:
    """Account one retried transport operation."""
    telemetry.get_registry().counter(
        "repro_resilience_retries_total", _RETRIES_HELP
    ).inc(backend=backend, op=op)


def connect_with_retry(
    host: str,
    port: int,
    resilience: ResilienceConfig,
    shard: int | None = None,
    backend: str = "sockets",
    supervisor: "WorkerSupervisor | None" = None,
) -> socket.socket:
    """The blessed transport connect path (enforced by lint rule PRO009).

    Attempts ``resilience.retry.max_attempts`` connects, each bounded by
    the ``connect`` deadline, sleeping the policy's seeded backoff
    schedule in between — a worker started a moment after the
    coordinator no longer loses the race.  Honors ``refuse_connect``
    fault rules.  Raises :class:`TransportError` naming the address and
    the last underlying error once attempts are exhausted.
    """
    retry = resilience.retry
    plan = faults.active_fault_plan()
    delays = retry.delays()
    last_error: OSError | None = None
    for attempt in range(1, retry.max_attempts + 1):
        if plan is not None and plan.refuses_connect(shard, attempt):
            last_error = ConnectionRefusedError(
                f"fault plan refused connect attempt {attempt}"
            )
        else:
            try:
                return socket.create_connection(
                    (host, port), timeout=resilience.deadlines.connect
                )
            except OSError as error:
                last_error = error
        wait = next(delays, None)
        if wait is None:
            break
        if supervisor is not None:
            # Routes through the pool's report counters *and* telemetry.
            supervisor.record_retry("connect")
        else:
            count_retry(backend, "connect")
        time.sleep(wait)
    raise TransportError(
        f"could not connect to worker at {host}:{port} after "
        f"{retry.max_attempts} attempt(s) "
        f"({type(last_error).__name__}: {last_error})"
    )


class ShardSupervisor:
    """Recovery bookkeeping for one shard of a worker pool.

    Tracks the basis snapshot (the shard's pristine replica), the replay
    buffer of blocks past the basis, the monotone send sequence, and the
    recovery/degradation state.  Buffering is disabled entirely under ``fail-fast`` recovery
    so the zero-overhead transport path stays zero-overhead.
    """

    __slots__ = (
        "index", "basis", "basis_seq", "buffer", "tracking",
        "lost", "recoveries_used", "rows_dropped", "rows_sent", "_next_seq",
    )

    def __init__(
        self, index: int, pristine: bytes, resilience: ResilienceConfig
    ) -> None:
        self.index = index
        self.basis = bytes(pristine)
        self.basis_seq = -1
        self.buffer: list[tuple[int, object]] = []
        self.tracking = not resilience.recovery.fail_fast
        self.lost = False
        self.recoveries_used = 0
        self.rows_dropped = 0
        self.rows_sent = 0
        self._next_seq = 0

    def assign_seq(self) -> int:
        """Next monotone block sequence number for this shard."""
        seq = self._next_seq
        self._next_seq += 1
        return seq

    def record_send(self, seq: int, block) -> None:
        """Remember a sent block until the next collect covers it."""
        if self.tracking:
            self.buffer.append((seq, block))
            self.rows_sent += int(block.shape[0])

    def replay_blocks(self) -> tuple:
        """Blocks (seq order) a recovered worker must re-ingest."""
        return tuple(self.buffer)

    def after_collect(self) -> None:
        """Reset to the segment boundary: worker is pristine again."""
        self.basis_seq = self._next_seq - 1
        self.buffer.clear()
        self.rows_sent = 0

    def mark_lost(self) -> None:
        """Give up on this shard; its data no longer contributes.

        Rows already shipped this segment are lost with the worker (the
        survivors' merge cannot recover them), so they fold into the
        dropped-row count the degraded report surfaces.
        """
        self.lost = True
        self.buffer.clear()
        self.rows_dropped += self.rows_sent
        self.rows_sent = 0

    def record_dropped(self, n_rows: int) -> None:
        """Account rows routed to this shard after it was lost."""
        self.rows_dropped += int(n_rows)

    def drain_dropped(self) -> int:
        """Return and zero the dropped-row count (per-collect accounting)."""
        dropped = self.rows_dropped
        self.rows_dropped = 0
        return dropped


class WorkerSupervisor:
    """Pool-wide supervision: per-shard state plus policy decisions.

    The pool owns the I/O (it is the one holding the sockets); the
    supervisor owns the bookkeeping — whether another recovery is
    allowed, whether exhaustion degrades or fails, and the telemetry
    accounting for retries and recoveries.
    """

    def __init__(
        self,
        backend: str,
        pristine_payloads: list[bytes],
        resilience: ResilienceConfig | None,
    ) -> None:
        self.resilience = (resilience or ResilienceConfig()).validate()
        self.backend = backend
        self.shards = [
            ShardSupervisor(index, payload, self.resilience)
            for index, payload in enumerate(pristine_payloads)
        ]
        self.retries = 0
        self.recoveries = 0

    def shard(self, index: int) -> ShardSupervisor:
        """The per-shard supervision state."""
        return self.shards[index]

    @property
    def lost_shards(self) -> tuple[int, ...]:
        """Indices of shards given up on (sorted)."""
        return tuple(s.index for s in self.shards if s.lost)

    @property
    def rows_dropped(self) -> int:
        """Rows routed to lost shards and dropped, pool-wide."""
        return sum(s.rows_dropped for s in self.shards)

    def record_retry(self, op: str) -> None:
        """Account one retried RPC (telemetry + report counters)."""
        self.retries += 1
        count_retry(self.backend, op)

    def may_recover(self, shard_index: int) -> bool:
        """True when the policy still allows recovering this shard."""
        shard = self.shards[shard_index]
        return (
            shard.tracking and not shard.lost
            and shard.recoveries_used < self.resilience.recovery.max_recoveries
        )

    def may_degrade(self) -> bool:
        """True when exhausting one more live shard should degrade, not raise.

        Degrading needs a survivor: with at most one shard still live,
        losing it would leave nothing to serve, so exhaustion fails as
        under ``on_exhausted: fail``.
        """
        live = sum(not shard.lost for shard in self.shards)
        return self.resilience.recovery.on_exhausted == "degrade" and live > 1

    def begin_recovery(self, shard_index: int):
        """Charge one recovery attempt and open the ``resilience.recover`` span."""
        self.shards[shard_index].recoveries_used += 1
        self.recoveries += 1
        telemetry.get_registry().counter(
            "repro_resilience_recoveries_total", _RECOVERIES_HELP
        ).inc(backend=self.backend)
        return telemetry.span(
            "resilience.recover", backend=self.backend, shard=shard_index
        )
