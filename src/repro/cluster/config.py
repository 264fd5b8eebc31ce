"""Configuration of the multi-process serving cluster.

One frozen dataclass holds every knob of ``infilter serve --workers N``:
where the flow director listens, how many shard-affine workers to run,
the per-worker serving parameters forwarded into each worker's
:class:`~repro.serve.config.ServeConfig`, the state directory that holds
one checkpoint per worker plus the composition manifest, and the
supervisor's own policies (federation poll cadence, restart budget,
drain timeout).  Validation happens at construction so a supervisor
never starts with a contradictory configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.serve.config import SHED_DROP_OLDEST, SHED_POLICIES
from repro.util.errors import ConfigError

__all__ = ["ClusterConfig"]


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs of the shard-affine serving cluster.

    ``workers`` is also the shard count: worker *i* owns shard *i* of
    the splitmix64 source-block router, its own checkpoint
    (``worker-0i-of-0N.json`` under ``state_dir``), and every flow whose
    source block hashes to it.  ``port``/``http_port`` may be 0 to bind
    ephemeral ports; worker sockets are always ephemeral and discovered
    through the worker handshake.
    """

    #: Directory holding the per-worker checkpoints and ``cluster.json``.
    state_dir: str
    host: str = "127.0.0.1"
    #: Front UDP port the flow director listens on (0 = ephemeral).
    port: int = 9995
    #: Federated observability endpoint port (``None`` disables it).
    http_port: Optional[int] = None
    #: Worker (== shard) count.
    workers: int = 2
    #: Per-worker ingest queue bound, in flow records.
    queue_capacity: int = 65_536
    shed_policy: str = SHED_DROP_OLDEST
    #: Records per commit batch inside each worker.
    batch_size: int = 256
    #: How long a worker's partial batch may wait, in seconds.
    batch_linger_s: float = 0.02
    #: Each worker checkpoints every N committed batches.  The default
    #: of 1 (every batch boundary) keeps the restart replay window one
    #: batch deep; raising it trades replay length for checkpoint IO.
    checkpoint_every: int = 1
    #: Drain the cluster once this many records have been routed.
    max_records: Optional[int] = None
    #: Drain after this long with no front traffic, in seconds.
    idle_exit_s: Optional[float] = None
    #: UDP receive buffer request for the front and worker sockets.
    recv_buffer_bytes: Optional[int] = 8 * 1024 * 1024
    #: Federation poll cadence for worker ``/stats.json``, in seconds.
    poll_interval_s: float = 0.5
    #: Supervised restarts allowed per worker before the supervisor
    #: gives up and drains the cluster.
    restart_limit: int = 3
    #: How long a drain waits for each worker to consume its routed
    #: records before terminating it anyway, in seconds.
    drain_timeout_s: float = 10.0
    #: Keep the director's raw record log for exact restart replay.
    #: Disabling trades the kill-and-restart equivalence guarantee for
    #: bounded memory on unbounded streams.
    replay_log: bool = True

    def __post_init__(self) -> None:
        if not self.state_dir:
            raise ConfigError("state_dir must be a non-empty path")
        if not 0 <= self.port <= 65_535:
            raise ConfigError(f"port must be in [0, 65535], got {self.port}")
        if self.http_port is not None and not 0 <= self.http_port <= 65_535:
            raise ConfigError(
                f"http_port must be in [0, 65535], got {self.http_port}"
            )
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
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
        if self.batch_linger_s < 0:
            raise ConfigError(
                f"batch_linger_s must be >= 0, got {self.batch_linger_s}"
            )
        if self.checkpoint_every < 1:
            raise ConfigError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
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
        if self.poll_interval_s <= 0:
            raise ConfigError(
                f"poll_interval_s must be > 0, got {self.poll_interval_s}"
            )
        if self.restart_limit < 0:
            raise ConfigError(
                f"restart_limit must be >= 0, got {self.restart_limit}"
            )
        if self.drain_timeout_s <= 0:
            raise ConfigError(
                f"drain_timeout_s must be > 0, got {self.drain_timeout_s}"
            )
