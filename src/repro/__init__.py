"""InFilter: predictive ingress filtering to detect spoofed IP traffic.

A full reproduction of Ghosh, Wong, Di Crescenzo and Talpade, *InFilter:
Predictive Ingress Filtering to Detect Spoofed IP Traffic* (ICDCS 2005),
including every substrate the paper's system and evaluation depend on:

- :mod:`repro.core` — the Enhanced InFilter detector (EIA sets, Scan
  Analysis, KOR nearest-neighbour search, IDMEF alerting);
- :mod:`repro.netflow` — NetFlow v5 wire format, exporter, collector,
  reporting (the NetFlow/Flow-tools substrate);
- :mod:`repro.routing` — AS-level Internet topology, BGP best paths,
  ``show ip bgp`` tables, traceroute and Looking-Glass simulation;
- :mod:`repro.flowgen` — the Section 6.2 address plan, synthetic traces,
  the 12-attack catalog, and the Dagflow replay tool;
- :mod:`repro.testbed` — the Figure 13/14 testbed and the Section 6.3
  experiment sets;
- :mod:`repro.validation` — the Section 3 hypothesis-validation studies;
- :mod:`repro.baselines` — uRPF, history-based filtering, signature IDS;
- :mod:`repro.serve` — the Figure 9 deployment: one daemon per
  collector host taking NetFlow over UDP into one commit loop, with
  batch-boundary checkpoints, warm restart and an HTTP observability
  endpoint.

Quick start::

    from repro import EnhancedInFilter, PipelineConfig

    detector = EnhancedInFilter(PipelineConfig())
    detector.preload_eia(peer_as, expected_blocks)
    detector.train(training_records)
    decision = detector.process(flow_record)
"""

from __future__ import annotations

from repro.core import (
    AlertSink,
    BasicInFilter,
    Decision,
    EIAConfig,
    EnhancedInFilter,
    IdmefAlert,
    NNSConfig,
    PipelineConfig,
    ScanConfig,
    Verdict,
)
from repro.netflow import FlowKey, FlowRecord, FlowStats

__version__ = "1.0.0"

__all__ = [
    "AlertSink",
    "BasicInFilter",
    "Decision",
    "EIAConfig",
    "EnhancedInFilter",
    "IdmefAlert",
    "NNSConfig",
    "PipelineConfig",
    "ScanConfig",
    "Verdict",
    "FlowKey",
    "FlowRecord",
    "FlowStats",
    "__version__",
]
