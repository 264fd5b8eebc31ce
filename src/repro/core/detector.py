"""The pluggable detector protocol and the detector ensemble.

The paper's InFilter verdict is one signal: EIA ingress membership
backed by Scan Analysis and the NNS search.  A production ingress filter
hosts *many* complementary signals, so the detection core speaks one
uniform interface:

* :class:`Detector` — ``observe(record) -> DetectorVerdict`` plus
  ``train(records)`` and the stage-state contract
  (``state_dict``/``load_state``), with a registered
  ``infilter_detector_*`` metric namespace per implementation;
* :class:`TTLProfileDetector` — per-source-prefix TTL baselines with
  distance-based anomaly scoring ("Carrier-Grade Anomaly Detection Using
  Time-to-Live Header Information"): a spoofed packet's TTL reflects the
  *attacker's* path, not the impersonated source's;
* :class:`BogonDetector` — martian/reserved source check against a
  prefix trie ("Martians Among Us"): traffic sourced from space that
  cannot legitimately originate anywhere;
* :class:`Ensemble` — combines per-detector votes under a configurable
  policy (``any``/``majority``/``weighted``) and renders the
  per-detector attribution attached to every alert.

The paper's own chain — :class:`~repro.core.eia.BasicInFilter`,
:class:`~repro.core.scan.ScanAnalyzer` + NNS — is the ensemble's
``"infilter"`` member.  It is not an adapter class: the hosting
:class:`~repro.core.pipeline.EnhancedInFilter` runs the chain itself and
puts its own verdict to the vote beside the auxiliary detectors' (the
:class:`Detector` implementations here).  The default composition is
InFilter alone, which bypasses the combiner entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.core.state import StateDict, stateful
from repro.netflow.records import FlowRecord
from repro.obs import MetricsRegistry, get_registry
from repro.util.errors import ConfigError
from repro.util.ip import Prefix, PrefixTrie

__all__ = [
    "INFILTER_DETECTOR",
    "AUX_DETECTOR_NAMES",
    "ENSEMBLE_POLICIES",
    "DEFAULT_DETECTOR_WEIGHTS",
    "DetectorVerdict",
    "Detector",
    "available_detectors",
    "validate_composition",
    "build_aux_detectors",
    "TTLProfileDetector",
    "BogonDetector",
    "EnsembleDecision",
    "Ensemble",
]

#: The paper's own EIA+Scan+NNS chain, always the ensemble's anchor
#: member: the hosting pipeline's own verdict, not a :class:`Detector`.
INFILTER_DETECTOR = "infilter"

#: Additional protocol implementations this module provides, in the
#: order the pipeline instantiates them.
AUX_DETECTOR_NAMES: Tuple[str, ...] = ("ttl_profile", "bogon")

ENSEMBLE_POLICIES: Tuple[str, ...] = ("any", "majority", "weighted")

#: Per-detector vote weights for the ``weighted`` policy.  A weighted
#: sum of flagging detectors at or above 1.0 is an attack: InFilter or
#: the bogon check alone suffice, a TTL anomaly needs corroboration.
DEFAULT_DETECTOR_WEIGHTS: Dict[str, float] = {
    INFILTER_DETECTOR: 1.0,
    "bogon": 1.0,
    "ttl_profile": 0.5,
}

_WEIGHTED_THRESHOLD = 1.0


@dataclass(frozen=True)
class DetectorVerdict:
    """One detector's assessment of one flow.

    ``abstained`` marks a detector that could not assess the flow at all
    (no TTL measured, source prefix never trained); abstentions are
    excluded from the ensemble electorate rather than counted as clear.
    ``score`` is a detector-specific anomaly magnitude (0 when clear);
    ``reason`` is the classification an alert carries when this verdict
    is the one that fired.
    """

    detector: str
    suspicious: bool
    score: float = 0.0
    reason: str = ""
    abstained: bool = False

    @property
    def outcome(self) -> str:
        """The attribution token: ``hit``, ``clear`` or ``abstain``."""
        if self.abstained:
            return "abstain"
        return "hit" if self.suspicious else "clear"


@runtime_checkable
class Detector(Protocol):
    """The uniform detector contract.

    Implementations expose a stable ``name`` (their registry identity
    and metric label), assess one flow at a time through ``observe``,
    build baselines in ``train``, and checkpoint through the stage-state
    protocol of :mod:`repro.core.state`.
    """

    name: str

    def observe(self, record: FlowRecord) -> DetectorVerdict:
        """Assess one flow.  Must not mutate trained baselines."""

    def train(self, records: Sequence[FlowRecord]) -> None:
        """Build or extend baselines from a training record stream."""

    def state_dict(self) -> StateDict:
        """Capture all mutable state as a JSON-serialisable dict."""

    def load_state(self, state: StateDict) -> None:
        """Restore the detector, in place, from a captured state dict."""


def available_detectors() -> Tuple[str, ...]:
    """Every selectable detector name, anchor first."""
    return (INFILTER_DETECTOR,) + AUX_DETECTOR_NAMES


def validate_composition(names: Sequence[str], policy: str) -> None:
    """Reject malformed detector compositions with actionable messages.

    Called from ``PipelineConfig.__post_init__``, so the CLI's
    ``--detectors``/``--ensemble-policy`` flags surface these as
    ``error: ...`` lines without extra plumbing.
    """
    known = available_detectors()
    if not names:
        raise ConfigError(
            "detector composition is empty; include at least"
            f" {INFILTER_DETECTOR!r}"
        )
    seen: Dict[str, int] = {}
    for name in names:
        seen[name] = seen.get(name, 0) + 1
    duplicates = sorted(name for name, count in seen.items() if count > 1)
    if duplicates:
        raise ConfigError(
            f"duplicate detector name(s) {', '.join(duplicates)}:"
            " each detector may appear at most once"
        )
    for name in names:
        if name not in known:
            raise ConfigError(
                f"unknown detector {name!r}; available: {', '.join(known)}"
            )
    if INFILTER_DETECTOR not in names:
        raise ConfigError(
            f"detector composition must include {INFILTER_DETECTOR!r}"
            " (the paper's EIA+Scan+NNS chain)"
        )
    if policy not in ENSEMBLE_POLICIES:
        raise ConfigError(
            f"unknown ensemble policy {policy!r}; expected one of"
            f" {', '.join(ENSEMBLE_POLICIES)}"
        )


def build_aux_detectors(
    names: Sequence[str], *, registry: Optional[MetricsRegistry] = None
) -> List["Detector"]:
    """Instantiate the non-anchor detectors of a composition, in order."""
    registry = registry if registry is not None else get_registry()
    detectors: List[Detector] = []
    for name in names:
        if name == INFILTER_DETECTOR:
            continue
        if name == "ttl_profile":
            detectors.append(TTLProfileDetector(registry=registry))
        elif name == "bogon":
            detectors.append(BogonDetector(registry=registry))
        else:
            raise ConfigError(
                f"unknown detector {name!r}; available:"
                f" {', '.join(available_detectors())}"
            )
    return detectors


class _DetectorMetrics:
    """The shared per-detector registry handles (docs/observability.md)."""

    def __init__(self, registry: MetricsRegistry, name: str) -> None:
        verdicts = registry.counter(
            "infilter_detector_verdicts_total",
            "Per-detector observe() outcomes, by detector and verdict.",
            ("detector", "verdict"),
        )
        self.hit = verdicts.labels(detector=name, verdict="hit")
        self.clear = verdicts.labels(detector=name, verdict="clear")
        self.abstain = verdicts.labels(detector=name, verdict="abstain")
        self.trained = registry.counter(
            "infilter_detector_train_records_total",
            "Training records consumed, per detector.",
            ("detector",),
        ).labels(detector=name)


@stateful("ttl_profile")
class TTLProfileDetector:
    """Per-source-prefix TTL baselines with distance anomaly scoring.

    Training collects the distinct TTL values observed per source prefix
    (at ``prefix_len`` granularity).  A live flow whose TTL sits more
    than ``tolerance`` hops from every baseline value of its prefix is
    suspicious: the packets plausibly originated somewhere else entirely
    (a spoofed source traverses the *attacker's* path, so its received
    TTL rarely matches the impersonated prefix's profile).  Flows with
    no measured TTL (``record.ttl == 0``) and prefixes never seen in
    training abstain — absent evidence is the EIA check's business, not
    this detector's.
    """

    name = "ttl_profile"

    def __init__(
        self,
        *,
        prefix_len: int = 8,
        tolerance: int = 3,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if not 0 < prefix_len <= 32:
            raise ConfigError("prefix_len must be a valid prefix length")
        if tolerance < 0:
            raise ConfigError("tolerance cannot be negative")
        self.prefix_len = prefix_len
        self.tolerance = tolerance
        self._profiles: Dict[Prefix, Tuple[int, ...]] = {}
        registry = registry if registry is not None else get_registry()
        self._metrics = _DetectorMetrics(registry, self.name)
        self._m_prefixes = registry.gauge(
            "infilter_detector_ttl_prefixes",
            "Source prefixes with a trained TTL baseline.",
        )
        self._m_anomalies = registry.counter(
            "infilter_detector_ttl_anomalies_total",
            "Flows whose TTL fell outside their source prefix baseline.",
        )

    def train(self, records: Sequence[FlowRecord]) -> None:
        """Extend the per-prefix baselines with observed TTL values."""
        for record in records:
            if record.ttl == 0:
                continue
            prefix = Prefix.from_address(record.key.src_addr, self.prefix_len)
            baseline = self._profiles.get(prefix)
            if baseline is None:
                self._profiles[prefix] = (record.ttl,)
            elif record.ttl not in baseline:
                self._profiles[prefix] = tuple(
                    sorted(baseline + (record.ttl,))
                )
        self._m_prefixes.set(len(self._profiles))
        self._metrics.trained.inc(len(records))

    def observe(self, record: FlowRecord) -> DetectorVerdict:
        if record.ttl == 0:
            self._metrics.abstain.inc()
            return DetectorVerdict(self.name, False, abstained=True)
        prefix = Prefix.from_address(record.key.src_addr, self.prefix_len)
        baseline = self._profiles.get(prefix)
        if baseline is None:
            self._metrics.abstain.inc()
            return DetectorVerdict(self.name, False, abstained=True)
        distance = min(abs(record.ttl - value) for value in baseline)
        if distance > self.tolerance:
            self._metrics.hit.inc()
            self._m_anomalies.inc()
            return DetectorVerdict(
                self.name, True, score=float(distance), reason="ttl-anomaly"
            )
        self._metrics.clear.inc()
        return DetectorVerdict(self.name, False)

    # -- the stage-state protocol --------------------------------------------

    def state_dict(self) -> StateDict:
        """Baselines plus the knobs they were built under.

        Profiles key on the prefix's canonical string form, sorted, so
        checkpoints stay byte-identical across save/load cycles.
        """
        return {
            "prefix_len": self.prefix_len,
            "tolerance": self.tolerance,
            "profiles": {
                str(prefix): list(self._profiles[prefix])
                for prefix in sorted(self._profiles, key=str)
            },
        }

    def load_state(self, state: StateDict) -> None:
        self.prefix_len = int(state["prefix_len"])
        self.tolerance = int(state["tolerance"])
        self._profiles = {
            Prefix.parse(text): tuple(int(value) for value in values)
            for text, values in state["profiles"].items()
        }
        self._m_prefixes.set(len(self._profiles))


#: Builtin martian categories.  Only space that cannot appear in the
#: Section 6.2 synthetic public universe (whose /8 list deliberately
#: includes blocks that are RFC-special in the real Internet, e.g. 172
#: and 192) — deployment-specific bogons join via ``extra_prefixes``.
_BUILTIN_BOGONS: Tuple[Tuple[str, str], ...] = (
    ("0.0.0.0/8", "this-network"),
    ("10.0.0.0/8", "private"),
    ("100.64.0.0/10", "shared-cgn"),
    ("127.0.0.0/8", "loopback"),
    ("224.0.0.0/4", "multicast"),
    ("240.0.0.0/4", "reserved"),
)


@stateful("bogon")
class BogonDetector:
    """Martian/reserved/unallocated source check against a prefix trie.

    A flow sourced from space that cannot legitimately originate
    anywhere is spoofed regardless of which peer it entered through, so
    this detector never abstains.  ``train`` is a no-op: the builtin
    list is protocol-level fact, and deployment-specific additions
    (unallocated space at the observation epoch) come in through
    ``extra_prefixes``.
    """

    name = "bogon"

    def __init__(
        self,
        *,
        extra_prefixes: Iterable[Prefix] = (),
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        registry = registry if registry is not None else get_registry()
        self._metrics = _DetectorMetrics(registry, self.name)
        self._m_matches = registry.counter(
            "infilter_detector_bogon_matches_total",
            "Flows sourced from martian/reserved space, by category.",
            ("category",),
        )
        self._extra: Tuple[Prefix, ...] = ()
        self._trie: PrefixTrie[str] = PrefixTrie()
        self._rebuild(tuple(extra_prefixes))

    def _rebuild(self, extra: Tuple[Prefix, ...]) -> None:
        self._extra = tuple(sorted(extra))
        self._trie = PrefixTrie()
        for text, category in _BUILTIN_BOGONS:
            self._trie.insert(Prefix.parse(text), category)
        for prefix in self._extra:
            self._trie.insert(prefix, "unallocated")

    def train(self, records: Sequence[FlowRecord]) -> None:
        """No baselines to learn; counts the records for uniformity."""
        self._metrics.trained.inc(len(records))

    def observe(self, record: FlowRecord) -> DetectorVerdict:
        match = self._trie.longest_match(record.key.src_addr)
        if match is not None:
            category = match[1]
            self._metrics.hit.inc()
            self._m_matches.labels(category=category).inc()
            return DetectorVerdict(
                self.name, True, score=1.0, reason="bogon-source"
            )
        self._metrics.clear.inc()
        return DetectorVerdict(self.name, False)

    # -- the stage-state protocol --------------------------------------------

    def state_dict(self) -> StateDict:
        """Only the deployment-specific additions; builtins are code."""
        return {"extra": [str(prefix) for prefix in self._extra]}

    def load_state(self, state: StateDict) -> None:
        self._rebuild(tuple(Prefix.parse(text) for text in state["extra"]))


@dataclass(frozen=True)
class EnsembleDecision:
    """The combiner's conclusion for one flow.

    ``attribution`` carries one ``name:outcome`` token per composed
    detector, in composition order — the provenance trail every
    ensemble alert embeds.  ``trigger`` is the first flagging auxiliary
    verdict, used to classify alerts the InFilter chain itself did not
    raise.
    """

    attack: bool
    attribution: Tuple[str, ...]
    trigger: Optional[DetectorVerdict] = None


class Ensemble:
    """Combines per-detector votes under a configurable policy.

    * ``any`` — one flagging detector makes the flow an attack;
    * ``majority`` — strictly more than half of the non-abstaining
      detectors must flag;
    * ``weighted`` — the flagging detectors' weights must sum to at
      least 1.0 (see :data:`DEFAULT_DETECTOR_WEIGHTS`).

    Abstaining detectors leave the electorate entirely; the InFilter
    chain always votes, so the electorate is never empty.
    """

    def __init__(
        self,
        policy: str,
        names: Sequence[str],
        *,
        weights: Optional[Dict[str, float]] = None,
    ) -> None:
        if policy not in ENSEMBLE_POLICIES:
            raise ConfigError(
                f"unknown ensemble policy {policy!r}; expected one of"
                f" {', '.join(ENSEMBLE_POLICIES)}"
            )
        self.policy = policy
        self.names = tuple(names)
        table = weights if weights is not None else DEFAULT_DETECTOR_WEIGHTS
        self._weights = {name: table.get(name, 1.0) for name in self.names}

    def combine(
        self, chain_attack: bool, aux: Sequence[DetectorVerdict]
    ) -> EnsembleDecision:
        """Fold the chain verdict and auxiliary verdicts into one answer."""
        chain = DetectorVerdict(
            INFILTER_DETECTOR, chain_attack, score=1.0 if chain_attack else 0.0
        )
        verdicts = (chain,) + tuple(aux)
        attribution = tuple(
            f"{verdict.detector}:{verdict.outcome}" for verdict in verdicts
        )
        voters = [verdict for verdict in verdicts if not verdict.abstained]
        hits = [verdict for verdict in voters if verdict.suspicious]
        if self.policy == "any":
            attack = bool(hits)
        elif self.policy == "majority":
            attack = 2 * len(hits) > len(voters)
        else:
            weight = sum(self._weights[verdict.detector] for verdict in hits)
            attack = weight >= _WEIGHTED_THRESHOLD
        trigger = next(
            (verdict for verdict in aux if verdict.suspicious), None
        )
        return EnsembleDecision(
            attack=attack, attribution=attribution, trigger=trigger
        )
