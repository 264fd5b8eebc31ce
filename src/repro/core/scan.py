"""Scan Analysis (Section 4.1).

Keeps a bounded buffer of the most recent *suspect* flows (those the EIA
check flagged) and two counting structures over it:

* **network scan** — many distinct destination hosts hit on the *same
  destination port* (the Slammer pattern: one vulnerability, random
  targets);
* **host scan** — many distinct destination ports hit on the *same
  destination host* (the nmap Idlescan pattern).

When either count crosses its threshold the flow that completed the
pattern is flagged, short-circuiting the more expensive NNS stage.  The
counters are maintained incrementally as flows enter and leave the ring
buffer, so a check is O(1) amortised.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Tuple

from repro.core.config import ScanConfig
from repro.core.state import Section, StateDict, stateful
from repro.obs import MetricsRegistry, get_logger, get_registry

__all__ = ["ScanVerdict", "ScanAnalyzer"]

log = get_logger(__name__)


@dataclass(frozen=True)
class ScanVerdict:
    """The scan assessment of one suspect flow."""

    is_scan: bool
    kind: Optional[str] = None  # "network_scan" | "host_scan"
    count: int = 0

    NETWORK = "network_scan"
    HOST = "host_scan"


#: What every suspect that completes no pattern gets back (frozen, so one
#: instance serves them all).
_NOT_A_SCAN = ScanVerdict(is_scan=False)


class _MultiCounter:
    """Counts distinct members per group with reference counting.

    ``add``/``remove`` take (group, member) pairs; ``distinct`` is the
    number of distinct members currently present in a group.  Used twice:
    group=dst_port, member=dst_host for network scans, and group=dst_host,
    member=dst_port for host scans.
    """

    def __init__(self) -> None:
        self._groups: Dict[int, Dict[int, int]] = {}

    def add(self, group: int, member: int) -> int:
        members = self._groups.setdefault(group, {})
        members[member] = members.get(member, 0) + 1
        return len(members)

    def remove(self, group: int, member: int) -> None:
        members = self._groups.get(group)
        if members is None:
            return
        count = members.get(member, 0)
        if count <= 1:
            members.pop(member, None)
            if not members:
                self._groups.pop(group, None)
        else:
            members[member] = count - 1

    def distinct(self, group: int) -> int:
        members = self._groups.get(group)
        return len(members) if members else 0


@stateful("scan")
class ScanAnalyzer:
    """The Section 4.1 scan detector over a suspect-flow buffer."""

    def __init__(
        self,
        config: Optional[ScanConfig] = None,
        *,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config if config is not None else ScanConfig()
        self._buffer: Deque[Tuple[int, int]] = deque()  # (dst_addr, dst_port)
        self._by_port = _MultiCounter()   # port -> hosts
        self._by_host = _MultiCounter()   # host -> ports
        self.network_scans_flagged = 0
        self.host_scans_flagged = 0
        registry = registry if registry is not None else get_registry()
        self._m_occupancy = registry.gauge(
            "infilter_scan_buffer_occupancy",
            "Suspect flows currently held in the scan analysis buffer.",
        )
        completions = registry.counter(
            "infilter_scan_completions_total",
            "Scan patterns completed (the flow that crossed the threshold).",
            ("kind",),
        )
        self._m_network = completions.labels(kind=ScanVerdict.NETWORK)
        self._m_host = completions.labels(kind=ScanVerdict.HOST)

    def __len__(self) -> int:
        return len(self._buffer)

    def observe(self, dst_addr: int, dst_port: int) -> ScanVerdict:
        """Add a suspect flow's target to the buffer and check both
        patterns."""
        if len(self._buffer) >= self.config.buffer_size:
            old_addr, old_port = self._buffer.popleft()
            self._by_port.remove(old_port, old_addr)
            self._by_host.remove(old_addr, old_port)
        self._buffer.append((dst_addr, dst_port))
        self._m_occupancy.set(len(self._buffer))
        hosts_on_port = self._by_port.add(dst_port, dst_addr)
        ports_on_host = self._by_host.add(dst_addr, dst_port)
        if hosts_on_port >= self.config.network_scan_threshold:
            self.network_scans_flagged += 1
            self._m_network.inc()
            if log.isEnabledFor(logging.INFO):
                log.info(
                    "network scan completed",
                    extra={"dst_port": dst_port, "distinct_hosts": hosts_on_port},
                )
            return ScanVerdict(
                is_scan=True, kind=ScanVerdict.NETWORK, count=hosts_on_port
            )
        if ports_on_host >= self.config.host_scan_threshold:
            self.host_scans_flagged += 1
            self._m_host.inc()
            if log.isEnabledFor(logging.INFO):
                log.info(
                    "host scan completed",
                    extra={"dst_addr": dst_addr, "distinct_ports": ports_on_host},
                )
            return ScanVerdict(
                is_scan=True, kind=ScanVerdict.HOST, count=ports_on_host
            )
        return _NOT_A_SCAN

    def reset(self) -> None:
        """Clear the buffer and counters."""
        self._buffer.clear()
        self._by_port = _MultiCounter()
        self._by_host = _MultiCounter()
        self._m_occupancy.set(0)

    # -- the stage-state protocol --------------------------------------------

    def state_dict(self) -> StateDict:
        """The buffer contents (oldest first) and completion counters.

        The two multi-counters are derived from the buffer and rebuilt on
        load — a restart must not lose in-flight scan suspicion, and the
        buffer is exactly that suspicion.
        """
        return {
            "buffer": [[addr, port] for addr, port in self._buffer],
            "network_scans_flagged": self.network_scans_flagged,
            "host_scans_flagged": self.host_scans_flagged,
        }

    def state_section(self) -> Section:
        """:meth:`state_dict` keyed on its value, read without building
        it: the buffered pairs and the two counters."""
        return Section(
            (
                tuple(self._buffer),
                self.network_scans_flagged,
                self.host_scans_flagged,
            ),
            self.state_dict,
        )

    def load_state(self, state: StateDict) -> None:
        self.reset()
        for entry in state["buffer"]:
            dst_addr, dst_port = int(entry[0]), int(entry[1])
            self._buffer.append((dst_addr, dst_port))
            self._by_port.add(dst_port, dst_addr)
            self._by_host.add(dst_addr, dst_port)
        self.network_scans_flagged = int(state["network_scans_flagged"])
        self.host_scans_flagged = int(state["host_scans_flagged"])
        self._m_occupancy.set(len(self._buffer))
