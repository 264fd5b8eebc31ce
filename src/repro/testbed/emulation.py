"""The CEWAS experimental testbed (Figures 13–14).

Emulates the paper's setup: an ISP with 10 peer ASs / 10 border routers,
each border router a Dagflow instance exporting NetFlow v5 to the
Enhanced InFilter software on a distinct UDP port.  The testbed assembles

* the Table 3 EIA plan over the 1000 /11 sub-blocks,
* ten normal-traffic Dagflow sources (optionally using the Table 2
  route-change allocations),
* attack Dagflow sets that spoof from the other peers' blocks,

and runs the merged, time-ordered record stream through the detector —
optionally over the real v5 wire format (encode → decode), with each
record stamped with the peer its UDP port stands for, exactly the path
Figure 13 draws.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.core.pipeline import EnhancedInFilter
from repro.core.config import PipelineConfig
from repro.flowgen.addressing import (
    Allocation,
    SubBlockSpace,
    eia_allocation,
    route_change_allocations,
)
from repro.flowgen.dagflow import Dagflow, LabeledRecord
from repro.flowgen.traces import synthesize_trace
from repro.netflow.records import FlowRecord
from repro.netflow.v5 import decode_datagram
from repro.util.errors import ExperimentError
from repro.util.ip import Prefix
from repro.util.rng import SeededRng

__all__ = ["TestbedConfig", "Testbed", "TimedRecord"]

_BASE_PORT = 9_000


@dataclass(frozen=True)
class TestbedConfig:
    """Shape of the emulated ISP (defaults are the paper's)."""

    __test__ = False  # not a pytest test class despite the name

    n_peers: int = 10
    blocks_per_peer: int = 100
    target_prefix: Prefix = Prefix.parse("198.18.0.0/16")
    training_flows: int = 4_000
    use_wire: bool = True

    def __post_init__(self) -> None:
        if self.n_peers < 2:
            raise ExperimentError("the testbed needs at least two peers")


@dataclass(frozen=True)
class TimedRecord:
    """A flow record tagged with ground truth and its ingress peer."""

    record: FlowRecord
    label: str
    peer: int

    @property
    def is_attack(self) -> bool:
        return self.label != "normal"


class Testbed:
    """One instantiated testbed: address plan, Dagflows, detector wiring."""

    __test__ = False  # not a pytest test class despite the name

    def __init__(
        self,
        config: TestbedConfig = TestbedConfig(),
        *,
        rng: SeededRng,
    ) -> None:
        self.config = config
        self.rng = rng
        self.space = SubBlockSpace()
        self.eia_plan = eia_allocation(
            self.space, config.n_peers, config.blocks_per_peer
        )

    # -- detector construction ---------------------------------------------

    def build_detector(
        self, pipeline_config: PipelineConfig
    ) -> EnhancedInFilter:
        """A detector preloaded with the Table 3 EIA plan and trained on a
        fresh normal trace (the single-Dagflow training run of 6.3)."""
        detector = EnhancedInFilter(
            pipeline_config, rng=self.rng.fork("detector")
        )
        for peer, blocks in self.eia_plan.items():
            detector.preload_eia(peer, blocks)
        training = self.training_records()
        if pipeline_config.enhanced:
            detector.train(training)
        return detector

    def training_records(self) -> List[FlowRecord]:
        """Records of the training cluster (one Dagflow, normal trace)."""
        trace = synthesize_trace(
            self.config.training_flows, rng=self.rng.fork("training-trace")
        )
        dagflow = Dagflow(
            "training",
            target_prefix=self.config.target_prefix,
            udp_port=_BASE_PORT,
            source_blocks=self.eia_plan[0],
            rng=self.rng.fork("training-dagflow"),
        )
        return [
            replace(lr.record, key=replace(lr.record.key, input_if=0))
            for lr in dagflow.replay(trace)
        ]

    # -- traffic sources ------------------------------------------------------

    def normal_dagflow(self, peer: int, blocks: Sequence[Prefix]) -> Dagflow:
        """A normal-traffic source for one peer with the given blocks."""
        return Dagflow(
            f"S{peer + 1}",
            target_prefix=self.config.target_prefix,
            udp_port=_BASE_PORT + peer,
            source_blocks=blocks,
            rng=self.rng.fork(f"normal-{peer}"),
        )

    def attack_dagflow(self, peer: int, *, source_pool_size: int = 64) -> Dagflow:
        """An attack source entering via ``peer``, spoofing from the other
        peers' 900 blocks (Section 6.3.1).

        ``source_pool_size`` models trace replay: the captured attack
        traces carry a fixed set of rewritten source addresses, so
        repeated launches re-spoof the same addresses rather than fresh
        random ones.
        """
        foreign = [
            block
            for other, blocks in self.eia_plan.items()
            if other != peer
            for block in blocks
        ]
        return Dagflow(
            f"A{peer + 1}",
            target_prefix=self.config.target_prefix,
            udp_port=_BASE_PORT + peer,
            source_blocks=foreign,
            rng=self.rng.fork(f"attack-{peer}"),
            source_pool_size=source_pool_size,
        )

    def allocations_for(
        self, change_blocks: int, n_allocations: int
    ) -> List[Dict[int, Allocation]]:
        """Table 2 allocations at the given route-change level."""
        return route_change_allocations(
            self.space,
            n_sources=self.config.n_peers,
            blocks_per_source=self.config.blocks_per_peer,
            change_blocks=change_blocks,
            n_allocations=n_allocations,
        )

    # -- stream assembly -------------------------------------------------------

    def merge_streams(
        self, streams: Sequence[Tuple[int, Iterable[LabeledRecord]]]
    ) -> Iterator[TimedRecord]:
        """Merge per-peer labelled streams into one time-ordered stream.

        ``streams`` pairs each stream with the peer it enters through.
        Optionally round-trips every record through the NetFlow v5 wire
        format, per ``config.use_wire``, then stamps it with the peer
        (``input_if``) whose UDP port it arrived on.
        """
        def tagged(peer: int, stream: Iterable[LabeledRecord]) -> Iterator[
            Tuple[int, int, int, TimedRecord]
        ]:
            for index, labelled in enumerate(stream):
                yield (
                    labelled.record.first,
                    peer,
                    index,
                    TimedRecord(record=labelled.record, label=labelled.label, peer=peer),
                )

        merged = heapq.merge(*[tagged(peer, s) for peer, s in streams])
        for _first, peer, _index, timed in merged:
            record = timed.record
            if self.config.use_wire:
                record = self._through_wire(record)
            record = record.with_key(input_if=peer)
            yield TimedRecord(record=record, label=timed.label, peer=peer)

    @staticmethod
    def _through_wire(record: FlowRecord) -> FlowRecord:
        """Round-trip one record through v5 encode/decode."""
        from repro.netflow.v5 import encode_datagram

        datagram = encode_datagram(
            [record], sys_uptime=record.last, unix_secs=0, flow_sequence=0
        )
        _header, decoded = decode_datagram(datagram)
        return decoded[0]
