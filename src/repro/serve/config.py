"""Configuration of the live serving daemon.

One frozen dataclass holds every operational knob of ``infilter serve``:
where to listen, how deep the ingest queue may grow and what to do when
it overflows, how records are micro-batched into the detector, when
checkpoints are taken, and which auxiliary endpoints (HTTP metrics,
SIGHUP reload source) are enabled.  Validation happens at construction
so a daemon never starts with a contradictory configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.util.errors import ConfigError

__all__ = [
    "SHED_DROP_OLDEST",
    "SHED_REJECT_NEWEST",
    "SHED_POLICIES",
    "ServeConfig",
]

#: Overflow policy: evict the oldest queued record to admit the newest.
SHED_DROP_OLDEST = "drop-oldest"
#: Overflow policy: refuse the incoming record, keep the queue as is.
SHED_REJECT_NEWEST = "reject-newest"
SHED_POLICIES: Tuple[str, ...] = (SHED_DROP_OLDEST, SHED_REJECT_NEWEST)


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of the live NetFlow serving daemon.

    ``port`` (and ``http_port``) may be 0 to bind an ephemeral port; the
    daemon reports the bound addresses once it is listening.  The shed
    policy decides which record loses when the bounded ingest queue is
    full: ``drop-oldest`` favours fresh traffic (the detector sees the
    most recent flows, at the cost of a gap), ``reject-newest`` favours
    in-order completeness of what was already admitted.
    """

    host: str = "127.0.0.1"
    port: int = 9995
    #: Bound of the ingest queue, in flow records.
    queue_capacity: int = 65_536
    shed_policy: str = SHED_DROP_OLDEST
    #: Most records per commit batch: a batch commits what has arrived,
    #: so it fills to this cap only under saturation.
    batch_size: int = 256
    #: Checkpoint the detector every N committed batches (0 disables).
    checkpoint_every: int = 0
    checkpoint_path: Optional[str] = None
    #: Where SIGHUP reloads the detector from; defaults to
    #: ``checkpoint_path`` when unset.
    reload_path: Optional[str] = None
    #: Enable the HTTP health/metrics endpoint on this port (0 = any).
    http_port: Optional[int] = None
    #: Stop (with a drain) after committing this many records.
    max_records: Optional[int] = None
    #: Stop (with a drain) after this long with no traffic and an empty
    #: queue — how examples and CI runs bound an otherwise-forever loop.
    idle_exit_s: Optional[float] = None
    #: Ask the kernel for this much UDP receive buffer (``SO_RCVBUF``)
    #: on the ingest socket; ``None`` keeps the system default.  A burst
    #: overruns the kernel's 208 KiB default long before the queue's
    #: shed policy gets a say; the kernel caps the request at
    #: ``net.core.rmem_max``.
    recv_buffer_bytes: Optional[int] = 8 * 1024 * 1024

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65_535:
            raise ConfigError(f"port must be in [0, 65535], got {self.port}")
        if self.queue_capacity < 1:
            raise ConfigError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if self.shed_policy not in SHED_POLICIES:
            raise ConfigError(
                f"shed_policy must be one of {'/'.join(SHED_POLICIES)},"
                f" got {self.shed_policy!r}"
            )
        if self.batch_size < 1:
            raise ConfigError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )
        if self.checkpoint_every < 0:
            raise ConfigError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )
        if self.checkpoint_every > 0 and self.checkpoint_path is None:
            raise ConfigError(
                "checkpoint_every needs a checkpoint_path to write to"
            )
        if self.http_port is not None and not 0 <= self.http_port <= 65_535:
            raise ConfigError(
                f"http_port must be in [0, 65535], got {self.http_port}"
            )
        if self.max_records is not None and self.max_records < 1:
            raise ConfigError(
                f"max_records must be >= 1, got {self.max_records}"
            )
        if self.idle_exit_s is not None and self.idle_exit_s <= 0:
            raise ConfigError(
                f"idle_exit_s must be > 0, got {self.idle_exit_s}"
            )
        if self.recv_buffer_bytes is not None and self.recv_buffer_bytes < 1:
            raise ConfigError(
                f"recv_buffer_bytes must be >= 1, got {self.recv_buffer_bytes}"
            )

    @property
    def effective_reload_path(self) -> Optional[str]:
        """The SIGHUP reload source: ``reload_path`` or the checkpoint."""
        if self.reload_path is not None:
            return self.reload_path
        return self.checkpoint_path
