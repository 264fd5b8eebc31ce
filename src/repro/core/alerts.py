"""IDMEF alert generation (Section 5.1.4).

When the analysis flags a flow it emits an alert in the Intrusion
Detection Message Exchange Format.  :class:`IdmefAlert` carries the fields
a consumer needs (analyzer identity, classification, source/target,
assessment) and renders to IDMEF XML; :func:`parse_idmef` reads the XML
back, which is what the Alert UI / downstream trace-back systems would do.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.state import StateDict, stateful
from repro.netflow.records import FlowRecord
from repro.obs import MetricsRegistry, get_logger, get_registry
from repro.util.errors import ReproError
from repro.util.ip import format_ipv4, parse_ipv4

__all__ = ["IdmefAlert", "AlertSink", "alert_state", "parse_idmef"]

log = get_logger(__name__)

_ANALYZER_ID = "enhanced-infilter"


@dataclass(frozen=True)
class IdmefAlert:
    """One IDMEF alert.

    ``classification`` names the detection ("spoofed-source",
    "network_scan", "host_scan", "nns-anomaly"); ``stage`` records which
    pipeline stage fired; ``detect_time_ms`` is detector clock time.
    ``attribution`` carries one ``detector:outcome`` token per composed
    detector when the ensemble is active (empty for the default
    InFilter-only composition, keeping its XML byte-identical to the
    pre-ensemble format).
    """

    ident: str
    classification: str
    stage: str
    source_address: int
    target_address: int
    target_port: int
    protocol: int
    observed_peer: int
    expected_peer: Optional[int]
    detect_time_ms: int
    severity: str = "medium"
    attribution: Tuple[str, ...] = ()

    @classmethod
    def for_flow(
        cls,
        ident: str,
        record: FlowRecord,
        *,
        classification: str,
        stage: str,
        expected_peer: Optional[int],
        detect_time_ms: int,
        severity: str = "medium",
        attribution: Tuple[str, ...] = (),
    ) -> "IdmefAlert":
        """Build an alert describing one flagged flow."""
        return cls(
            ident=ident,
            classification=classification,
            stage=stage,
            source_address=record.key.src_addr,
            target_address=record.key.dst_addr,
            target_port=record.key.dst_port,
            protocol=record.key.protocol,
            observed_peer=record.key.input_if,
            expected_peer=expected_peer,
            detect_time_ms=detect_time_ms,
            severity=severity,
            attribution=attribution,
        )

    def to_xml(self) -> str:
        """Render as an IDMEF-Message document."""
        message = ET.Element("IDMEF-Message", {"version": "1.0"})
        alert = ET.SubElement(message, "Alert", {"messageid": self.ident})
        analyzer = ET.SubElement(
            alert, "Analyzer", {"analyzerid": _ANALYZER_ID, "class": self.stage}
        )
        ET.SubElement(analyzer, "Node")
        detect = ET.SubElement(alert, "DetectTime")
        detect.text = str(self.detect_time_ms)
        source = ET.SubElement(alert, "Source")
        src_node = ET.SubElement(source, "Node")
        src_addr = ET.SubElement(src_node, "Address", {"category": "ipv4-addr"})
        ET.SubElement(src_addr, "address").text = format_ipv4(self.source_address)
        target = ET.SubElement(alert, "Target")
        tgt_node = ET.SubElement(target, "Node")
        tgt_addr = ET.SubElement(tgt_node, "Address", {"category": "ipv4-addr"})
        ET.SubElement(tgt_addr, "address").text = format_ipv4(self.target_address)
        service = ET.SubElement(target, "Service")
        ET.SubElement(service, "port").text = str(self.target_port)
        ET.SubElement(service, "protocol").text = str(self.protocol)
        classification = ET.SubElement(
            alert, "Classification", {"text": self.classification}
        )
        ET.SubElement(
            classification,
            "Reference",
            {"origin": "vendor-specific", "meaning": "pipeline-stage"},
        ).text = self.stage
        assessment = ET.SubElement(alert, "Assessment")
        ET.SubElement(assessment, "Impact", {"severity": self.severity})
        additional = ET.SubElement(
            alert, "AdditionalData", {"type": "integer", "meaning": "observed-peer"}
        )
        additional.text = str(self.observed_peer)
        if self.expected_peer is not None:
            expected = ET.SubElement(
                alert,
                "AdditionalData",
                {"type": "integer", "meaning": "expected-peer"},
            )
            expected.text = str(self.expected_peer)
        for token in self.attribution:
            entry = ET.SubElement(
                alert,
                "AdditionalData",
                {"type": "string", "meaning": "detector-attribution"},
            )
            entry.text = token
        return ET.tostring(message, encoding="unicode")


def alert_state(alert: IdmefAlert) -> StateDict:
    """One alert as its checkpoint dict (every field, keys sorted).

    The inline ``alerts`` section and the checkpoint's alert journal
    both serialise exactly this dict, so the two cannot drift.  Built
    by hand: ``dataclasses.asdict`` deep-copies recursively and cost
    more than the rest of a checkpoint put together.
    """
    return {
        "attribution": list(alert.attribution),
        "classification": alert.classification,
        "detect_time_ms": alert.detect_time_ms,
        "expected_peer": alert.expected_peer,
        "ident": alert.ident,
        "observed_peer": alert.observed_peer,
        "protocol": alert.protocol,
        "severity": alert.severity,
        "source_address": alert.source_address,
        "stage": alert.stage,
        "target_address": alert.target_address,
        "target_port": alert.target_port,
    }


def parse_idmef(xml_text: str) -> IdmefAlert:
    """Parse an IDMEF-Message back into an :class:`IdmefAlert`."""
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as error:
        raise ReproError(f"malformed IDMEF document: {error}") from error
    alert = root.find("Alert")
    if alert is None:
        raise ReproError("IDMEF document has no Alert element")
    classification = alert.find("Classification")
    stage_el = alert.find("Analyzer")
    source_addr = alert.findtext("Source/Node/Address/address")
    target_addr = alert.findtext("Target/Node/Address/address")
    if classification is None or source_addr is None or target_addr is None:
        raise ReproError("IDMEF alert missing required elements")
    observed_peer: Optional[int] = None
    expected_peer: Optional[int] = None
    attribution: List[str] = []
    for extra in alert.findall("AdditionalData"):
        meaning = extra.get("meaning")
        if meaning == "observed-peer" and extra.text is not None:
            observed_peer = int(extra.text)
        elif meaning == "expected-peer" and extra.text is not None:
            expected_peer = int(extra.text)
        elif meaning == "detector-attribution" and extra.text is not None:
            attribution.append(extra.text)
    severity_el = alert.find("Assessment/Impact")
    return IdmefAlert(
        ident=alert.get("messageid", ""),
        classification=classification.get("text", ""),
        stage=(stage_el.get("class", "") if stage_el is not None else ""),
        source_address=parse_ipv4(source_addr),
        target_address=parse_ipv4(target_addr),
        target_port=int(alert.findtext("Target/Service/port") or 0),
        protocol=int(alert.findtext("Target/Service/protocol") or 0),
        observed_peer=observed_peer if observed_peer is not None else 0,
        expected_peer=expected_peer,
        detect_time_ms=int(alert.findtext("DetectTime") or 0),
        severity=(severity_el.get("severity", "medium") if severity_el is not None else "medium"),
        attribution=tuple(attribution),
    )


@stateful("alerts")
class AlertSink:
    """An in-memory IDMEF consumer (the Alert UI role).

    Stores alerts and exposes simple queries; a real deployment would
    forward the XML to a SIEM or trace-back system instead.
    """

    def __init__(self, *, registry: Optional[MetricsRegistry] = None) -> None:
        self.alerts: List[IdmefAlert] = []
        registry = registry if registry is not None else get_registry()
        self._m_alerts = registry.counter(
            "infilter_alerts_total",
            "IDMEF alerts consumed, by pipeline stage and classification.",
            ("stage", "classification"),
        )

    def consume(self, alert: IdmefAlert) -> None:
        self.alerts.append(alert)
        self._m_alerts.labels(
            stage=alert.stage, classification=alert.classification
        ).inc()
        log.debug(
            "alert consumed",
            extra={
                "ident": alert.ident,
                "classification": alert.classification,
                "stage": alert.stage,
                "severity": alert.severity,
            },
        )

    def consume_xml(self, xml_text: str) -> IdmefAlert:
        alert = parse_idmef(xml_text)
        self.consume(alert)
        return alert

    def __len__(self) -> int:
        return len(self.alerts)

    def by_classification(self, classification: str) -> List[IdmefAlert]:
        return [a for a in self.alerts if a.classification == classification]

    # -- the stage-state protocol --------------------------------------------

    def state_dict(self) -> StateDict:
        """Alert history, in arrival order.

        Monotonic consumption *metrics* are deliberately not restored on
        load: counters describe this process's lifetime, state describes
        the detector's.
        """
        return {"alerts": [alert_state(alert) for alert in self.alerts]}

    def load_state(self, state: StateDict) -> None:
        # JSON round-trips the attribution tuple as a list; normalise it
        # back so restored alerts compare equal to freshly emitted ones.
        self.alerts = [
            IdmefAlert(
                **{
                    key: tuple(value) if key == "attribution" else value
                    for key, value in entry.items()
                }
            )
            for entry in state["alerts"]
        ]
