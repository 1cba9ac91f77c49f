"""Deterministic fault injection for the transport layer.

A :class:`FaultPlan` is a declarative, seeded list of :class:`FaultRule`
entries — "crash shard 1 after 2 blocks", "corrupt the 3rd frame sent to
shard 0", "refuse the first 2 connect attempts" — that the transport
modules consult at well-defined hook points:

* ``ShardWorkerState`` (worker side) calls :meth:`FaultPlan.on_block`
  before ingesting each block → ``crash`` (``os._exit``) and ``hang``
  (sleep past the ingest deadline) rules.
* The pool/client send paths call :meth:`FaultPlan.mangle_frame` on each
  encoded frame → ``delay`` / ``drop`` / ``truncate`` / ``corrupt``
  rules.
* :func:`~.supervisor.connect_with_retry` calls
  :meth:`FaultPlan.refuses_connect` per attempt → ``refuse_connect``
  rules.

Plans are installed either in-process (:func:`install_fault_plan`;
loopback shard servers forked by
:func:`~repro.engine.transport.spawn_local_servers` while a plan is
installed inherit the module global) or via the ``REPRO_FAULT_PLAN``
environment variable as JSON — the hook separate ``python -m repro
worker`` processes and CI chaos steps use.

Rules fire **once** by default.  A recovered shard *replays* the very
blocks that triggered the fault, so a rule that kept firing would kill
every replacement forever.  In-process latching uses a plain set; when
the firing process itself may be replaced (a crashed worker restarted
under the same plan), pass ``state_dir`` — firing then leaves an
``O_EXCL``-created token file that survives the process boundary.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from dataclasses import dataclass

from ...errors import InvalidParameterError

__all__ = [
    "FAULT_PLAN_ENV",
    "FaultPlan",
    "FaultRule",
    "active_fault_plan",
    "clear_fault_plan",
    "install_fault_plan",
    "installed_fault_plan",
]

#: Environment variable holding a JSON-encoded fault plan.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Actions a rule may take, grouped by hook point.
_BLOCK_ACTIONS = ("crash", "hang")
_FRAME_ACTIONS = ("delay", "drop", "truncate", "corrupt")
_CONNECT_ACTIONS = ("refuse_connect",)
ACTIONS = _BLOCK_ACTIONS + _FRAME_ACTIONS + _CONNECT_ACTIONS

#: Exit code used by ``crash`` rules, distinct from real worker failures.
CRASH_EXIT_CODE = 57


@dataclass(frozen=True)
class FaultRule:
    """One declarative fault.

    ``shard`` scopes the rule to a shard index (``None`` = any shard).
    ``after_blocks`` arms block-hook actions once the worker has ingested
    that many blocks; ``frame`` arms frame-hook actions on the Nth frame
    (0-based) sent to the shard; ``until_attempt`` makes
    ``refuse_connect`` refuse attempts numbered below it (1-based).
    ``seconds`` is the ``hang`` / ``delay`` duration.  ``once`` rules
    latch after firing (see the module docstring).
    """

    action: str
    shard: int | None = None
    after_blocks: int | None = None
    frame: int | None = None
    seconds: float = 30.0
    until_attempt: int = 0
    once: bool = True

    def validate(self) -> "FaultRule":
        """Raise :class:`InvalidParameterError` on nonsense; return self."""
        if self.action not in ACTIONS:
            raise InvalidParameterError(
                f"unknown fault action {self.action!r}; choose from "
                f"{', '.join(ACTIONS)}"
            )
        if self.action in _BLOCK_ACTIONS and self.after_blocks is None:
            raise InvalidParameterError(
                f"fault action {self.action!r} needs after_blocks"
            )
        if self.action in _FRAME_ACTIONS and self.frame is None:
            raise InvalidParameterError(
                f"fault action {self.action!r} needs a frame index"
            )
        if self.action in _CONNECT_ACTIONS and self.until_attempt < 1:
            raise InvalidParameterError(
                "refuse_connect needs until_attempt >= 1"
            )
        return self

    @property
    def tag(self) -> str:
        """Stable identity used for once-latching across processes."""
        return (
            f"{self.action}-s{self.shard}-b{self.after_blocks}"
            f"-f{self.frame}-a{self.until_attempt}"
        )

    def to_dict(self) -> dict:
        """JSON-able view, inverse of :meth:`from_dict`."""
        return {
            "action": self.action,
            "shard": self.shard,
            "after_blocks": self.after_blocks,
            "frame": self.frame,
            "seconds": self.seconds,
            "until_attempt": self.until_attempt,
            "once": self.once,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultRule":
        """Rebuild from a :meth:`to_dict` payload."""
        return cls(
            action=str(payload["action"]),
            shard=None if payload.get("shard") is None else int(payload["shard"]),
            after_blocks=(
                None if payload.get("after_blocks") is None
                else int(payload["after_blocks"])
            ),
            frame=None if payload.get("frame") is None else int(payload["frame"]),
            seconds=float(payload.get("seconds", 30.0)),
            until_attempt=int(payload.get("until_attempt", 0)),
            once=bool(payload.get("once", True)),
        ).validate()


class FaultPlan:
    """A seeded set of fault rules plus the once-latch bookkeeping."""

    def __init__(
        self,
        rules: list[FaultRule] | tuple[FaultRule, ...],
        seed: int = 0,
        state_dir: str | None = None,
    ) -> None:
        self.rules = tuple(rule.validate() for rule in rules)
        self.seed = int(seed)
        self.state_dir = state_dir
        self._fired: set[str] = set()

    def _fire(self, rule: FaultRule) -> bool:
        """Latch ``rule``; False when a once-rule already fired."""
        if not rule.once:
            return True
        if self.state_dir is not None:
            token = os.path.join(self.state_dir, f"fired-{rule.tag}")
            try:
                fd = os.open(token, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                return False
            os.close(fd)
            return True
        if rule.tag in self._fired:
            return False
        self._fired.add(rule.tag)
        return True

    def _matches_shard(self, rule: FaultRule, shard: int | None) -> bool:
        return rule.shard is None or shard is None or rule.shard == shard

    def on_block(self, shard: int, blocks_handled: int) -> None:
        """Worker-side hook, called before ingesting each block.

        ``blocks_handled`` counts blocks already ingested by this worker
        process; a ``crash`` rule with ``after_blocks=K`` kills the
        process when asked to ingest block ``K`` (0-based), i.e. after
        ``K`` blocks landed.
        """
        for rule in self.rules:
            if rule.action not in _BLOCK_ACTIONS:
                continue
            if not self._matches_shard(rule, shard):
                continue
            if blocks_handled != rule.after_blocks:
                continue
            if not self._fire(rule):
                continue
            if rule.action == "crash":
                os._exit(CRASH_EXIT_CODE)
            time.sleep(rule.seconds)

    def mangle_frame(
        self, shard: int | None, frame_index: int, frame: bytes
    ) -> bytes | None:
        """Client-side hook over each encoded frame before it is sent.

        Returns the (possibly mangled) frame, or ``None`` for ``drop``.
        """
        for rule in self.rules:
            if rule.action not in _FRAME_ACTIONS:
                continue
            if not self._matches_shard(rule, shard):
                continue
            if frame_index != rule.frame:
                continue
            if not self._fire(rule):
                continue
            if rule.action == "delay":
                time.sleep(rule.seconds)
            elif rule.action == "drop":
                return None
            elif rule.action == "truncate":
                frame = frame[: max(1, len(frame) // 2)]
            elif rule.action == "corrupt":
                # Flip bits just past the u32 length prefix so the header
                # JSON (not the framing) is what breaks.
                frame = frame[:4] + bytes(
                    b ^ 0xFF for b in frame[4:12]
                ) + frame[12:]
        return frame

    def refuses_connect(self, shard: int | None, attempt: int) -> bool:
        """Connect hook: True when 1-based ``attempt`` should be refused.

        ``refuse_connect`` rules are not once-latched per attempt — they
        refuse every attempt strictly below ``until_attempt``.
        """
        for rule in self.rules:
            if rule.action not in _CONNECT_ACTIONS:
                continue
            if not self._matches_shard(rule, shard):
                continue
            if attempt < rule.until_attempt:
                return True
        return False

    def to_dict(self) -> dict:
        """JSON-able view, inverse of :meth:`from_dict`."""
        return {
            "seed": self.seed,
            "state_dir": self.state_dir,
            "rules": [rule.to_dict() for rule in self.rules],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        """Rebuild from a :meth:`to_dict` payload."""
        return cls(
            rules=[FaultRule.from_dict(item) for item in payload.get("rules", [])],
            seed=int(payload.get("seed", 0)),
            state_dir=payload.get("state_dir"),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse the ``REPRO_FAULT_PLAN`` JSON form."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise InvalidParameterError(
                f"malformed fault plan JSON: {error}"
            ) from error
        return cls.from_dict(payload)


_INSTALLED: FaultPlan | None = None
_ENV_CACHE: tuple[str, FaultPlan] | None = None


def install_fault_plan(plan: FaultPlan) -> None:
    """Install ``plan`` process-wide (inherited by fork-started workers)."""
    global _INSTALLED
    _INSTALLED = plan


def clear_fault_plan() -> None:
    """Remove any in-process plan."""
    global _INSTALLED
    _INSTALLED = None


@contextlib.contextmanager
def installed_fault_plan(plan: FaultPlan):
    """Context manager: install ``plan`` for the duration of the block."""
    install_fault_plan(plan)
    try:
        yield plan
    finally:
        clear_fault_plan()


def active_fault_plan() -> FaultPlan | None:
    """The plan in effect: in-process first, then ``REPRO_FAULT_PLAN``.

    The env form is parsed once per distinct value, so separate worker
    processes (spawned servers, CI chaos steps) pay one ``json.loads``.
    """
    global _ENV_CACHE
    if _INSTALLED is not None:
        return _INSTALLED
    text = os.environ.get(FAULT_PLAN_ENV)
    if not text:
        return None
    if _ENV_CACHE is None or _ENV_CACHE[0] != text:
        _ENV_CACHE = (text, FaultPlan.from_json(text))
    return _ENV_CACHE[1]
