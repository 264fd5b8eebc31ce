"""A naive transcription of Figure 12, kept as the test oracle.

``EnhancedInFilter.process`` and ``process_batch`` share one kernel, so
comparing them with each other no longer checks the chain itself.  This
module walks the paper's normal-processing order directly over the
stage objects — ``BasicInFilter.check`` -> overload window ->
``ScanAnalyzer.observe`` -> ``ClusterModel.assess`` -> ``note_benign`` —
with no verdict memo, no NNS memo, no stats, no metrics and no alert
sink, and reports what each flow should come out as.

It borrows the *stage objects* of an identically built, never-run
detector (``parts``) so both sides start from the same EIA sets and the
same trained model; it never calls ``process``, ``process_batch`` or
``assess_memoised``.
"""

from collections import deque
from typing import Iterable, List, Optional, Tuple

from repro.core.config import OverloadConfig
from repro.core.detector import Ensemble
from repro.core.pipeline import Decision, EnhancedInFilter
from repro.netflow.records import FlowRecord

#: (verdict, stage, absorbed, classification, alert ident) of one flow.
Outcome = Tuple[str, str, bool, Optional[str], Optional[str]]


def outcome_of(decision: Decision) -> Outcome:
    """The comparable projection of a pipeline decision."""
    alert = decision.alert
    return (
        decision.verdict,
        decision.stage,
        decision.absorbed,
        alert.classification if alert is not None else None,
        alert.ident if alert is not None else None,
    )


def reference_chain(
    parts: EnhancedInFilter, records: Iterable[FlowRecord]
) -> List[Outcome]:
    """What serial Figure-12 processing makes of ``records``."""
    config = parts.config
    infilter, scan, model = parts.infilter, parts.scan, parts.model
    ensemble = (
        Ensemble(config.ensemble_policy, config.detectors)
        if len(config.detectors) > 1
        else None
    )
    overload = config.overload
    suspect_times: deque = deque()
    degraded = 0
    alerts = 0
    outcomes: List[Outcome] = []
    for record in records:
        absorbed = False
        classification: Optional[str] = None
        if not infilter.check(record).suspect:
            verdict, stage = "legal", "eia"
        elif not config.enhanced:
            verdict, stage, classification = "attack", "eia", "spoofed-source"
        elif _over_capacity(suspect_times, record.last, overload):
            # Section 6.3.2: past saturation a drop_fraction share goes
            # unanalysed (benign by default), the rest is flagged blind.
            degraded += 1
            if (degraded * 619) % 1000 < int(overload.drop_fraction * 1000):
                verdict, stage = "benign", "overload"
            else:
                verdict, stage = "attack", "overload"
                classification = "unanalysed-suspect"
        else:
            scan_verdict = scan.observe(record.key.dst_addr, record.key.dst_port)
            if scan_verdict.is_scan:
                verdict, stage = "attack", "scan"
                classification = scan_verdict.kind or "scan"
            else:
                assert model is not None
                is_normal, _neighbour, _class = model.assess(record)
                if is_normal is None:
                    is_normal = not config.flag_unmodelled_classes
                if is_normal:
                    verdict, stage = "benign", "nns"
                    absorbed = infilter.note_benign(record)
                else:
                    verdict, stage = "attack", "nns"
                    classification = "nns-anomaly"
        if ensemble is not None:
            votes = [aux.observe(record) for aux in parts.aux_detectors]
            combined = ensemble.combine(verdict == "attack", votes)
            if verdict == "attack" and not combined.attack:
                verdict, stage, classification = "benign", "ensemble", None
            elif verdict != "attack" and combined.attack:
                verdict, stage = "attack", "ensemble"
                trigger = combined.trigger
                classification = (
                    trigger.reason
                    if trigger is not None and trigger.reason
                    else "ensemble-vote"
                )
        ident = None
        if verdict == "attack":
            alerts += 1
            ident = f"infilter-{alerts:08d}"
        outcomes.append((verdict, stage, absorbed, classification, ident))
    return outcomes


def _over_capacity(times: deque, now_ms: int, overload: OverloadConfig) -> bool:
    """Suspect rate over the sliding flow-time window vs. capacity."""
    if overload.suspect_capacity_per_s is None:
        return False
    times.append(now_ms)
    while times and times[0] < now_ms - overload.window_ms:
        times.popleft()
    return len(times) * 1000.0 / overload.window_ms > overload.suspect_capacity_per_s
