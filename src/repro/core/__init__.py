"""The Enhanced InFilter detector: EIA sets, Scan Analysis, NNS, pipeline."""

from __future__ import annotations

from repro.core.alerts import AlertSink, IdmefAlert, parse_idmef
from repro.core.persistence import (
    STATE_FORMAT_VERSION,
    describe_state,
    load_checkpoint,
    load_detector,
    render_state,
    save_detector,
)
from repro.core.state import (
    STATEFUL_COMPONENTS,
    StateDict,
    StatefulComponent,
    stateful,
)
from repro.core.bootstrap import eia_from_bgp, eia_from_traceroutes, remap_peers
from repro.core.traceback import IngressReport, TracebackAnalyzer
from repro.core.clusters import (
    PROTOCOL_CLASSES,
    ClusterModel,
    NormalCluster,
    SubCluster,
    protocol_class,
)
from repro.core.config import (
    EIAConfig,
    FeatureSpec,
    NNSConfig,
    OverloadConfig,
    PipelineConfig,
    ScanConfig,
)
from repro.core.detector import (
    AUX_DETECTOR_NAMES,
    ENSEMBLE_POLICIES,
    INFILTER_DETECTOR,
    BogonDetector,
    Detector,
    DetectorVerdict,
    Ensemble,
    EnsembleDecision,
    TTLProfileDetector,
    available_detectors,
    build_aux_detectors,
    validate_composition,
)
from repro.core.eia import BasicInFilter, EIACheck, EIASet, EIAVerdict
from repro.core.encoding import UnaryEncoder, hamming, parity_inner_product
from repro.core.nns import NNSStructure, SearchResult, TrainingFlow
from repro.core.pipeline import (
    Decision,
    EnhancedInFilter,
    PipelineStats,
    Stage,
    Verdict,
)
from repro.core.scan import ScanAnalyzer, ScanVerdict

__all__ = [
    "AlertSink",
    "STATE_FORMAT_VERSION",
    "describe_state",
    "load_checkpoint",
    "load_detector",
    "render_state",
    "save_detector",
    "STATEFUL_COMPONENTS",
    "StateDict",
    "StatefulComponent",
    "stateful",
    "eia_from_bgp",
    "eia_from_traceroutes",
    "remap_peers",
    "IngressReport",
    "TracebackAnalyzer",
    "OverloadConfig",
    "IdmefAlert",
    "parse_idmef",
    "PROTOCOL_CLASSES",
    "ClusterModel",
    "NormalCluster",
    "SubCluster",
    "protocol_class",
    "EIAConfig",
    "FeatureSpec",
    "NNSConfig",
    "PipelineConfig",
    "ScanConfig",
    "AUX_DETECTOR_NAMES",
    "ENSEMBLE_POLICIES",
    "INFILTER_DETECTOR",
    "BogonDetector",
    "Detector",
    "DetectorVerdict",
    "Ensemble",
    "EnsembleDecision",
    "TTLProfileDetector",
    "available_detectors",
    "build_aux_detectors",
    "validate_composition",
    "BasicInFilter",
    "EIACheck",
    "EIASet",
    "EIAVerdict",
    "UnaryEncoder",
    "hamming",
    "parity_inner_product",
    "NNSStructure",
    "SearchResult",
    "TrainingFlow",
    "Decision",
    "EnhancedInFilter",
    "PipelineStats",
    "Stage",
    "Verdict",
    "ScanAnalyzer",
    "ScanVerdict",
]
