"""The Enhanced InFilter pipeline (Section 5).

Wires the stages together in the paper's normal-processing order
(Figure 12):

1. **EIA set analysis** — a flow whose source is expected at the peer it
   arrived through is legal; anything else is a *suspect flow*;
2. **Scan Analysis** — suspect flows feed the scan buffer; a completed
   network/host-scan pattern is an attack;
3. **NNS Search** — remaining suspects are compared with their protocol
   class's normal subcluster; beyond the distance threshold is an attack,
   within it the flow is assessed benign and contributes toward EIA
   absorption of its (route-changed) source block.

``PipelineConfig(enhanced=False)`` stops after stage 1 and flags every
suspect — the paper's BI configuration.  Attacks produce IDMEF alerts.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from math import frexp, ldexp
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.alerts import AlertSink, IdmefAlert
from repro.core.clusters import ClusterModel, protocol_class
from repro.core.config import PipelineConfig
from repro.core.detector import (
    INFILTER_DETECTOR,
    Detector,
    DetectorVerdict,
    Ensemble,
    EnsembleDecision,
    build_aux_detectors,
)
from repro.core.eia import BasicInFilter, EIACheck
from repro.core.nns import SearchResult
from repro.core.scan import ScanAnalyzer, ScanVerdict
from repro.core.state import (
    Section,
    SectionTable,
    StateDict,
    section_state,
    stateful,
)
from repro.fastpath.columnar import RecordColumns, RecordRow, RowBatch, RowColumns
from repro.fastpath.plane import MISSING, FastPath
from repro.netflow.records import FlowRecord
from repro.obs import MetricsRegistry, Stopwatch, get_logger, get_registry
from repro.util.errors import ConfigError, TrainingError
from repro.util.ip import Prefix
from repro.util.rng import SeededRng

__all__ = [
    "Verdict",
    "Stage",
    "Decision",
    "NnsAssessment",
    "BatchResult",
    "PipelineStats",
    "EnhancedInFilter",
    "latency_bucket",
    "bucket_percentile",
]

#: Sub-buckets per octave of the :func:`latency_bucket` histogram
#: (:class:`PipelineStats`' and the serve worker's).  A bucket spans
#: 1/8 of its octave, so its midpoint is within 1/16 = 6.25% of any
#: latency it holds.
_LATENCY_SUBBUCKETS = 8
#: Bucket index of a zero latency: below the index of the smallest
#: positive float (-8,584), so zeros sort first and share no bucket.
_LATENCY_ZERO_BUCKET = -(1 << 14)

log = get_logger(__name__)


class Verdict:
    """Final assessment of one flow."""

    LEGAL = "legal"            # expected ingress: never entered analysis
    BENIGN = "benign"          # suspect, but analysis cleared it
    ATTACK = "attack"


class Stage:
    """Pipeline stage that produced the decision."""

    EIA = "eia"
    SCAN = "scan"
    NNS = "nns"
    OVERLOAD = "overload"
    #: The multi-detector combiner overruled (or originated) the verdict.
    ENSEMBLE = "ensemble"


@dataclass(frozen=True)
class Decision:
    """Everything the pipeline concluded about one flow."""

    verdict: str
    stage: str
    eia: EIACheck
    scan: Optional[ScanVerdict] = None
    neighbour: Optional[SearchResult] = None
    protocol_class: Optional[str] = None
    alert: Optional[IdmefAlert] = None
    absorbed: bool = False
    latency_s: float = 0.0

    @property
    def is_attack(self) -> bool:
        return self.verdict == Verdict.ATTACK


@dataclass(frozen=True)
class NnsAssessment:
    """The NNS stage's result for one flow — what the memos hold.

    At ``M1 = 1`` (the paper's setting) ``ClusterModel.assess`` is a pure
    function of (trained model, flow), so one result serves every flow
    of the same shape.  At ``M1 > 1`` every probed scale draws from the
    structure's pick RNG: the result depends on the draws before it and
    computing it moves the cursor, so it is never reused
    (:meth:`EnhancedInFilter.assess_memoised`).
    """

    is_normal: Optional[bool]
    neighbour: Optional[SearchResult]
    protocol_class: str


@dataclass
class BatchResult:
    """What :meth:`EnhancedInFilter.process_batch` concluded about a batch."""

    decisions: List[Decision]
    elapsed_s: float = 0.0


def latency_bucket(latency_s: float) -> int:
    """The log-linear histogram bucket of a latency.

    frexp's mantissa is in [0.5, 1), and its offset into the octave in
    sixteenths of that range is the sub-bucket — exact in binary floats.
    """
    if latency_s > 0.0:
        mantissa, exponent = frexp(latency_s)
        return exponent * _LATENCY_SUBBUCKETS + int(
            mantissa * (2 * _LATENCY_SUBBUCKETS)
        ) - _LATENCY_SUBBUCKETS
    return _LATENCY_ZERO_BUCKET


def bucket_percentile(
    buckets: Dict[int, int], quantile: float, ceiling_s: float
) -> float:
    """The latency at ``quantile`` of a :func:`latency_bucket` histogram.

    The midpoint of the bucket holding the ``int(quantile * n)``-th
    smallest latency, so within 6.25% (stated bound: 7%) of it, and
    never above ``ceiling_s`` (the largest latency counted); 0.0 when
    the histogram is empty.  ``quantile`` must already be in [0, 1].
    """
    total = sum(buckets.values())
    if not total:
        return 0.0
    rank = min(total - 1, int(quantile * total))
    for bucket in sorted(buckets):
        rank -= buckets[bucket]
        if rank < 0:
            break
    if bucket == _LATENCY_ZERO_BUCKET:
        return 0.0
    exponent, sub = divmod(bucket, _LATENCY_SUBBUCKETS)
    midpoint = ldexp(0.5 + (2 * sub + 1) / (4 * _LATENCY_SUBBUCKETS), exponent)
    return min(midpoint, ceiling_s)


@stateful("stats")
@dataclass
class PipelineStats:
    """Operational counters, including per-flow processing latency."""

    processed: int = 0
    legal: int = 0
    suspects: int = 0
    benign: int = 0
    attacks: int = 0
    absorbed: int = 0
    attacks_by_stage: Dict[str, int] = field(default_factory=dict)
    overload_dropped: int = 0
    overload_flagged: int = 0
    latency_total_s: float = 0.0
    latency_max_s: float = 0.0
    #: per-flow latency histogram for percentile queries: sparse
    #: ``{bucket index: count}`` over log-linear buckets
    #: (``_LATENCY_SUBBUCKETS`` per power of two).  A few hundred integers
    #: however long the run, covering every flow (the mean/max above are
    #: exact regardless).
    latency_buckets: Dict[int, int] = field(default_factory=dict)

    def note(self, decision: Decision) -> None:
        self.processed += 1
        latency_s = decision.latency_s
        self.latency_total_s += latency_s
        if latency_s > self.latency_max_s:
            self.latency_max_s = latency_s
        bucket = latency_bucket(latency_s)
        buckets = self.latency_buckets
        buckets[bucket] = buckets.get(bucket, 0) + 1
        if decision.verdict == Verdict.LEGAL:
            self.legal += 1
            return
        self.suspects += 1
        if decision.absorbed:
            self.absorbed += 1
        if decision.verdict == Verdict.BENIGN:
            self.benign += 1
        else:
            self.attacks += 1
            self.attacks_by_stage[decision.stage] = (
                self.attacks_by_stage.get(decision.stage, 0) + 1
            )

    @property
    def mean_latency_s(self) -> float:
        return self.latency_total_s / self.processed if self.processed else 0.0

    def latency_percentile(self, quantile: float) -> float:
        """Latency at the given quantile in [0, 1] over every flow noted.

        Read off the bucket histogram (:func:`bucket_percentile`), so
        within 7% of the exact quantile and never above
        ``latency_max_s``.
        """
        if not 0.0 <= quantile <= 1.0:
            raise ConfigError("quantile must be in [0, 1]")
        return bucket_percentile(
            self.latency_buckets, quantile, self.latency_max_s
        )

    # -- the stage-state protocol --------------------------------------------

    def state_dict(self) -> StateDict:
        """Every counter plus the latency histogram, buckets in index
        order (JSON object keys are strings)."""
        return {
            "processed": self.processed,
            "legal": self.legal,
            "suspects": self.suspects,
            "benign": self.benign,
            "attacks": self.attacks,
            "absorbed": self.absorbed,
            "attacks_by_stage": {
                stage: self.attacks_by_stage[stage]
                for stage in sorted(self.attacks_by_stage)
            },
            "overload_dropped": self.overload_dropped,
            "overload_flagged": self.overload_flagged,
            "latency_total_s": self.latency_total_s,
            "latency_max_s": self.latency_max_s,
            "latency_buckets": {
                str(bucket): self.latency_buckets[bucket]
                for bucket in sorted(self.latency_buckets)
            },
        }

    def load_state(self, state: StateDict) -> None:
        self.processed = int(state["processed"])
        self.legal = int(state["legal"])
        self.suspects = int(state["suspects"])
        self.benign = int(state["benign"])
        self.attacks = int(state["attacks"])
        self.absorbed = int(state["absorbed"])
        self.attacks_by_stage = {
            str(stage): int(count)
            for stage, count in state["attacks_by_stage"].items()
        }
        self.overload_dropped = int(state["overload_dropped"])
        self.overload_flagged = int(state["overload_flagged"])
        self.latency_total_s = float(state["latency_total_s"])
        self.latency_max_s = float(state["latency_max_s"])
        self.latency_buckets = {
            int(bucket): int(count)
            for bucket, count in state["latency_buckets"].items()
        }


class _PipelineMetrics:
    """The pipeline's registry handles (see docs/observability.md).

    Label children are resolved once here rather than per flow: the
    verdict/stage combinations are a small fixed set and ``process`` is
    the hot path.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.flows = registry.counter(
            "infilter_pipeline_flows_total",
            "Flows assessed, by final verdict and deciding stage.",
            ("verdict", "stage"),
        )
        self._flows_by_outcome: Dict[Tuple[str, str], Any] = {}
        self.flow_latency = registry.histogram(
            "infilter_pipeline_flow_latency_seconds",
            "End-to-end per-flow processing latency (the Section 6.4 metric).",
        )
        stage_latency = registry.histogram(
            "infilter_pipeline_stage_latency_seconds",
            "Time spent inside one analysis stage, per suspect flow.",
            ("stage",),
        )
        self.eia_latency = stage_latency.labels(stage=Stage.EIA)
        self.scan_latency = stage_latency.labels(stage=Stage.SCAN)
        self.nns_latency = stage_latency.labels(stage=Stage.NNS)
        self.overload = registry.counter(
            "infilter_pipeline_overload_total",
            "Suspect flows that hit the Section 6.3.2 saturation gate.",
            ("action",),
        )
        self.overload_dropped = self.overload.labels(action="dropped")
        self.overload_flagged = self.overload.labels(action="flagged")
        # Ensemble-active runs only; the default InFilter-only composition
        # never touches these (same help text as repro.core.detector so
        # the get-or-create registry treats them as one family).
        chain = registry.counter(
            "infilter_detector_verdicts_total",
            "Per-detector observe() outcomes, by detector and verdict.",
            ("detector", "verdict"),
        )
        self.chain_hit = chain.labels(
            detector=INFILTER_DETECTOR, verdict="hit"
        )
        self.chain_clear = chain.labels(
            detector=INFILTER_DETECTOR, verdict="clear"
        )
        ensemble = registry.counter(
            "infilter_detector_ensemble_decisions_total",
            "Multi-detector combine outcomes, per assessed flow.",
            ("outcome",),
        )
        self.ensemble_confirmed = ensemble.labels(outcome="confirmed")
        self.ensemble_promoted = ensemble.labels(outcome="promoted")
        self.ensemble_suppressed = ensemble.labels(outcome="suppressed")
        self.ensemble_clear = ensemble.labels(outcome="clear")
        self.state_entries = registry.gauge(
            "infilter_state_entries",
            "Entries in one bounded in-memory structure, set once per batch.",
            ("component",),
        )

    def note(self, decision: Decision) -> None:
        key = (decision.verdict, decision.stage)
        flows = self._flows_by_outcome.get(key)
        if flows is None:
            flows = self._flows_by_outcome[key] = self.flows.labels(
                verdict=decision.verdict, stage=decision.stage
            )
        flows.inc()
        self.flow_latency.observe(decision.latency_s)


@stateful("pipeline")
class EnhancedInFilter:
    """The complete detector.

    Typical lifecycle::

        detector = EnhancedInFilter(PipelineConfig())
        detector.initialize_eia_from_flows(training_records)   # mode (a)
        detector.train(training_records)                       # modes (b)-(d)
        for record in live_records:                            # mode (e)
            decision = detector.process(record)

    ``alert_sink`` receives an IDMEF alert per attack decision.
    """

    def __init__(
        self,
        config: Optional[PipelineConfig] = None,
        *,
        alert_sink: Optional[AlertSink] = None,
        rng: Optional[SeededRng] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        config = config if config is not None else PipelineConfig()
        self.config = config
        registry = registry if registry is not None else get_registry()
        self.registry = registry
        self._metrics = _PipelineMetrics(registry)
        self.infilter = BasicInFilter(config.eia, registry=registry)
        self.scan = ScanAnalyzer(config.scan, registry=registry)
        self.model: Optional[ClusterModel] = None
        self.alert_sink = (
            alert_sink
            if alert_sink is not None
            else AlertSink(registry=registry)
        )
        self.stats = PipelineStats()
        # The composed auxiliary detectors, in composition (= vote) order.
        # With the default InFilter-only composition both are inert and
        # every ensemble hook below reduces to the pre-ensemble pipeline.
        self.aux_detectors: List[Detector] = build_aux_detectors(
            config.detectors, registry=registry
        )
        self._ensemble: Optional[Ensemble] = (
            Ensemble(config.ensemble_policy, config.detectors)
            if len(config.detectors) > 1
            else None
        )
        # Only ever forked, and a fork reads the seed alone: the seed and
        # the name are the state a checkpoint keeps, no cursor.
        self._rng = rng if rng is not None else SeededRng(config.nns.seed, "pipeline")
        self._alert_counter = 0
        # Overload model state: recent suspect timestamps (flow-time ms)
        # and a counter driving the deterministic drop/flag split.
        self._suspect_times: deque = deque()
        self._overload_counter = 0
        # The NNS search is draw-free, hence memoisable, only at M1 = 1:
        # with more tables per scale each probe consumes the pick RNG.
        self._nns_memoised = config.nns.m1 == 1
        # Memo of NNS assessments, keyed by (protocol class, unary
        # encoding).  Valid for the detector's lifetime because the
        # trained model is immutable; bounded by _NNS_MEMO_CAP.
        self._nns_memo: Dict[Tuple[str, int], NnsAssessment] = {}
        # Raw-field front memo over _nns_memo: (protocol, dst_port,
        # packets, octets, duration) fully determine the protocol class
        # and the unary encoding (stats() derives every feature from
        # packets/octets/duration), so a repeated flow shape skips
        # stats() + encode() entirely.  Same purity argument, lifetime,
        # and cap as _nns_memo.
        self._nns_raw_memo: Dict[
            Tuple[int, int, int, int, int], NnsAssessment
        ] = {}

    _NNS_MEMO_CAP = 65_536

    @property
    def fastpath(self) -> FastPath[int, Optional[int]]:
        """The EIA owner table (``infilter.table``): a derived cache like
        the NNS memos, excluded from state_dict, cold after load_state."""
        return self.infilter.table

    # -- training-phase entry points (Section 5.1.3 modes a-d) -------------

    def preload_eia(self, peer: int, prefixes: Iterable[Prefix]) -> None:
        """Mode (a), by hand: assign expected blocks to a peer AS."""
        self.infilter.preload(peer, prefixes)

    def initialize_eia_from_flows(self, records: Iterable[FlowRecord]) -> None:
        """Mode (a), from live traffic."""
        self.infilter.initialize_from_flows(records)

    def train(self, records: Sequence[FlowRecord]) -> None:
        """Modes (b)-(d): build the normal cluster model.

        Only needed for the EI configuration; a BI detector may skip it.
        """
        self.model = ClusterModel.train(
            records, self.config.nns, rng=self._rng.fork("model")
        )
        for aux in self.aux_detectors:
            aux.train(records)
        self._nns_memo.clear()
        self._nns_raw_memo.clear()

    # -- online operation (mode e) ------------------------------------------

    def process(self, record: FlowRecord) -> Decision:
        """Assess one incoming flow and update detector state.

        The measured path: the decision carries its own latency and the
        per-stage latency histograms get one lap per stage reached (the
        Section 6.4 per-flow numbers).
        """
        watch = Stopwatch()
        decision = self._commit(RecordRow(record), 0, MISSING, laps=True)
        object.__setattr__(decision, "latency_s", watch.elapsed_s())
        self.stats.note(decision)
        self._metrics.note(decision)
        return decision

    def process_all(self, records: Iterable[FlowRecord]) -> List[Decision]:
        """Convenience: assess a record stream, returning all decisions."""
        return [self.process(record) for record in records]

    def process_batch(
        self, rows: Union[RowBatch, Sequence[FlowRecord]]
    ) -> BatchResult:
        """Assess a batch of flows with amortised bookkeeping.

        Runs the same per-flow chain as :meth:`process`, in order — same
        verdicts, stages, absorptions, and alerts — but one stopwatch
        brackets the batch: every decision carries the batch's *mean*
        per-flow latency instead of its own measurement, the per-stage
        latency histograms receive no samples (their per-flow laps are
        exactly the overhead this path removes), and the verdict counters
        are bumped once per (verdict, stage) rather than once per flow.

        ``rows`` is a :class:`~repro.fastpath.columnar.RowBatch` of
        decoded-datagram column slices (the serve path) or a sequence of
        records, adapted to one here (library callers).  Either way one loop
        reads two columns per row and probes the EIA owner table once: a
        row whose source block the table says is expected at the row's
        ingress is *legal* and gets its decision there; every other row
        goes through :meth:`_commit` as ``(columns, index)`` with the
        owner the probe found, and becomes a :class:`FlowRecord` only if
        a stage there consumes one.  Once auxiliary detectors are
        composed they observe every flow, as a record: each row is then
        materialised here and the chain runs over a one-row view of it.
        """
        batch = (
            rows if isinstance(rows, RowBatch) else RowBatch.of(RecordColumns(rows))
        )
        total = len(batch)
        watch = Stopwatch()
        commit = self._commit
        infilter = self.infilter
        memo_clears = self._ensemble is None
        legal, at_eia = Verdict.LEGAL, Stage.EIA
        decisions: List[Decision] = []
        append = decisions.append
        table_misses = 0
        # The table's dict is never rebound and an absorption writes the
        # moved block through it: only the key shift can go stale.
        owners = infilter.table.entries
        shift = infilter.memo_shift
        legal_checks: Dict[int, EIACheck] = {}
        for columns, start, stop in batch.slices:
            sources = columns.src_addr
            ingresses = columns.input_if
            for index in range(start, stop):
                ingress = ingresses[index]
                owner = owners.get(sources[index] >> shift, MISSING)
                if owner == ingress and memo_clears:
                    eia = legal_checks.get(ingress)
                    if eia is None:
                        eia = legal_checks[ingress] = infilter.check_for(
                            ingress, ingress
                        )
                    append(Decision(legal, at_eia, eia))
                    continue
                if owner is MISSING:
                    table_misses += 1
                if memo_clears:
                    decision = commit(columns, index, owner, laps=False)
                else:
                    decision = commit(
                        RecordRow(columns.record_at(index)), 0, owner, laps=False
                    )
                append(decision)
                if decision.absorbed:
                    shift = infilter.memo_shift
        infilter.table.note_hits(total - table_misses)
        elapsed = watch.elapsed_s()
        share = elapsed / total if total else 0.0
        verdict_stage_counts: Dict[Tuple[str, str], int] = {}
        for decision in decisions:
            object.__setattr__(decision, "latency_s", share)
            self.stats.note(decision)
            key = (decision.verdict, decision.stage)
            verdict_stage_counts[key] = verdict_stage_counts.get(key, 0) + 1
        for (verdict, stage), count in verdict_stage_counts.items():
            self._metrics.flows.labels(verdict=verdict, stage=stage).inc(count)
        self._metrics.flow_latency.observe_many(share, total)
        for component, size in (
            ("eia_owner_table", len(owners)),
            ("eia_pending", infilter.pending_size()),
            ("nns_memo", len(self._nns_memo)),
            ("nns_raw_memo", len(self._nns_raw_memo)),
            ("scan_buffer", len(self.scan)),
        ):
            self._metrics.state_entries.labels(component=component).set(size)
        return BatchResult(decisions=decisions, elapsed_s=elapsed)

    def _commit(
        self, columns: RowColumns, index: int, owner: Any, *, laps: bool
    ) -> Decision:
        """The Figure 12 chain for row ``index`` of ``columns``, with
        every side effect.

        EIA check -> overload gate -> Scan Analysis -> NNS -> learning
        rule; attacks alert and, with an ensemble composed, every verdict
        is put to the vote.  This is the only transcription of the chain
        in ``src/``: :meth:`process` calls it on a one-row view with
        per-stage stopwatch ``laps`` on, :meth:`process_batch` loops over
        it with them off.  ``owner`` is what the caller's probe of the
        owner table found (``MISSING``: nothing, so the check is asked).

        The stages read the row's columns; ``columns.record_at(index)``
        is called only where a :class:`FlowRecord` is consumed — the
        check on an owner-table miss, an NNS raw-key memo miss, an alert,
        an ensemble vote — so a suspect the NNS memo clears never becomes
        one.

        Every stage is reached through its owner at call time, so a
        wrapper installed on ``infilter.check``, ``scan.observe`` or
        ``assess_memoised`` (``benchmarks/e2e`` tracing) sees each call.
        The returned decision carries no latency; the caller stamps it.
        """
        infilter = self.infilter
        lap = Stopwatch() if laps else None
        if owner is MISSING:
            eia = infilter.check(columns.record_at(index))
        else:
            eia = infilter.check_for(owner, columns.input_if[index])
        if lap is not None:
            lap.lap_into(self._metrics.eia_latency)
        if not eia.suspect:
            return self._maybe_promote(
                columns, index, Decision(verdict=Verdict.LEGAL, stage=Stage.EIA, eia=eia)
            )
        if not self.config.enhanced:
            return self._attack(
                columns.record_at(index), eia, Stage.EIA, "spoofed-source"
            )
        if self._over_capacity(columns.last[index]):
            return self._degraded(columns, index, eia)
        if lap is not None:
            lap.restart()
        scan_verdict = self.scan.observe(
            columns.dst_addr[index], columns.dst_port[index]
        )
        if lap is not None:
            lap.lap_into(self._metrics.scan_latency)
        if scan_verdict.is_scan:
            return self._attack(
                columns.record_at(index),
                eia,
                Stage.SCAN,
                scan_verdict.kind or "scan",
                scan=scan_verdict,
            )
        assessment = self.assess_memoised(columns, index)
        if lap is not None:
            lap.lap_into(self._metrics.nns_latency)
        is_normal = assessment.is_normal
        if is_normal is None:
            is_normal = not self.config.flag_unmodelled_classes
        if not is_normal:
            return self._attack(
                columns.record_at(index),
                eia,
                Stage.NNS,
                "nns-anomaly",
                scan=scan_verdict,
                neighbour=assessment.neighbour,
                protocol_class=assessment.protocol_class,
            )
        block = infilter.learn(columns.input_if[index], columns.src_addr[index])
        return self._maybe_promote(
            columns,
            index,
            Decision(
                verdict=Verdict.BENIGN,
                stage=Stage.NNS,
                eia=eia,
                scan=scan_verdict,
                neighbour=assessment.neighbour,
                protocol_class=assessment.protocol_class,
                absorbed=block is not None,
            ),
        )

    def assess_memoised(self, columns: RowColumns, index: int) -> NnsAssessment:
        """NNS assessment of row ``index`` through the two memos.

        Equivalent to ``self.model.assess(columns.record_at(index))``,
        result *and* RNG cursor.  At ``M1 = 1`` — the paper's setting, and
        the only one whose search draws nothing — that is a pure function
        of the immutable trained model and the flow's unary encoding, so
        two flows that bin identically share one search; the raw-key memo
        in front is probed from the row's columns, and the row becomes a
        :class:`FlowRecord` only on a miss there.  At ``M1 > 1`` a memo
        hit would skip the pick-RNG draws the search makes and every
        later answer would differ from the serial chain's, so both memos
        are bypassed.
        """
        if self.model is None:
            raise TrainingError(
                "enhanced pipeline processed a suspect flow before train()"
            )
        if not self._nns_memoised:
            return NnsAssessment(*self.model.assess(columns.record_at(index)))
        raw_key = (
            columns.protocol[index],
            columns.dst_port[index],
            columns.packets[index],
            columns.octets[index],
            columns.last[index] - columns.first[index],
        )
        cached = self._nns_raw_memo.get(raw_key)
        if cached is not None:
            return cached
        record = columns.record_at(index)
        name = protocol_class(record)
        subcluster = self.model.subclusters.get(name)
        if subcluster is None:
            assessment = NnsAssessment(None, None, name)
        else:
            encoded = self.model.encoder.encode(record.stats())
            key = (name, encoded)
            memoised = self._nns_memo.get(key)
            if memoised is None:
                if len(self._nns_memo) >= self._NNS_MEMO_CAP:
                    self._nns_memo.clear()
                is_normal, neighbour = subcluster.assess(encoded)
                memoised = NnsAssessment(is_normal, neighbour, name)
                self._nns_memo[key] = memoised
            assessment = memoised
        if len(self._nns_raw_memo) >= self._NNS_MEMO_CAP:
            self._nns_raw_memo.clear()
        self._nns_raw_memo[raw_key] = assessment
        return assessment

    # -- the stage-state protocol --------------------------------------------

    @property
    def alert_counter(self) -> int:
        """Monotonic IDMEF ident counter; survives warm restarts so a
        resumed run continues the same ident sequence."""
        return self._alert_counter

    @alert_counter.setter
    def alert_counter(self, value: int) -> None:
        self._alert_counter = int(value)

    def state_dict(self) -> StateDict:
        """The composed state of every stage, one section per component.

        The NNS memos and the EIA owner table are derived caches and
        are rebuilt lazily (checkpoints are byte-identical with those
        caches hot or cold); everything else a resumed run
        could observe — the EIA plan and moves, scan suspicion, the
        trained model, stats, alert history, the RNG seed, overload
        window — is captured.
        """
        state = section_state(self.state_sections())
        state["eia"]["plan"] = self.infilter.plan_state()
        state["model"] = (
            self.model.state_dict() if self.model is not None else None
        )
        state["alerts"] = self.alert_sink.state_dict()
        return state

    def state_sections(self) -> SectionTable:
        """Every section that can differ between two batch boundaries,
        each with the signal that says it did.

        :meth:`state_dict` minus the three a three-file checkpoint writes
        apart (see :mod:`repro.core.persistence`): ``model``, fixed at
        :meth:`train` but for the pick cursors
        (:attr:`ClusterModel.pick_draws`), and the EIA plan
        (:meth:`BasicInFilter.plan_state`), both in the base; and
        ``alerts``, which only grows at its end.  The signals: the EIA
        moves and pending counters carry stamps; ``scan`` is keyed on
        its value; the small or per-batch rest have none and are
        rendered every time.
        """
        return {
            "eia": self.infilter.state_sections(),
            "scan": self.scan.state_section(),
            "stats": Section(None, self.stats.state_dict),
            "alert_counter": Section(None, lambda: self._alert_counter),
            "rng": Section(None, self._rng_state),
            "overload": Section(None, self._overload_state),
            # One namespaced section per composed auxiliary detector, in
            # composition order (empty for the default composition).
            "detectors": Section(None, self._detector_states),
        }

    def _rng_state(self) -> StateDict:
        return {"seed": self._rng.seed, "name": self._rng.name}

    def _overload_state(self) -> StateDict:
        return {
            "counter": self._overload_counter,
            "suspect_times": list(self._suspect_times),
        }

    def _detector_states(self) -> StateDict:
        return {aux.name: aux.state_dict() for aux in self.aux_detectors}

    def load_state(self, state: StateDict) -> None:
        self.infilter.load_state(state["eia"])
        self.scan.load_state(state["scan"])
        model_state = state["model"]
        self.model = (
            ClusterModel.from_state(self.config.nns, model_state)
            if model_state is not None
            else None
        )
        self.stats.load_state(state["stats"])
        self.alert_sink.load_state(state["alerts"])
        self._alert_counter = int(state["alert_counter"])
        rng = state["rng"]
        self._rng = SeededRng(int(rng["seed"]), str(rng["name"]))
        overload = state["overload"]
        self._overload_counter = int(overload["counter"])
        self._suspect_times = deque(int(stamp) for stamp in overload["suspect_times"])
        # Checkpoints written before the ensemble refactor (or by other
        # compositions) may lack a section; such detectors keep their
        # constructor state, matching the legacy-format retrain rule.
        detector_sections = state.get("detectors", {})
        for aux in self.aux_detectors:
            section = detector_sections.get(aux.name)
            if section is not None:
                aux.load_state(section)
        self._nns_memo.clear()
        self._nns_raw_memo.clear()

    # -- internals ------------------------------------------------------------

    def _over_capacity(self, now_ms: int) -> bool:
        """The Section 6.3.2 saturation check, in flow time.

        Counts suspects inside the sliding window and compares the implied
        rate with the configured analysis capacity.
        """
        overload = self.config.overload
        if not overload.enabled:
            return False
        window_start = now_ms - overload.window_ms
        times = self._suspect_times
        times.append(now_ms)
        while times and times[0] < window_start:
            times.popleft()
        rate = len(times) * 1000.0 / overload.window_ms
        return rate > overload.suspect_capacity_per_s

    def _degraded(self, columns: RowColumns, index: int, eia: EIACheck) -> Decision:
        """Handle an over-capacity suspect: drop or flag unanalysed."""
        overload = self.config.overload
        self._overload_counter += 1
        threshold = int(overload.drop_fraction * 1000)
        # A low-discrepancy sweep over [0, 1000) so the drop/flag split
        # tracks drop_fraction deterministically even for short bursts.
        if (self._overload_counter * 619) % 1000 < threshold:
            self.stats.overload_dropped += 1
            self._metrics.overload_dropped.inc()
            log.debug(
                "overload: suspect dropped unanalysed",
                extra={"flow_time_ms": columns.last[index], "action": "dropped"},
            )
            return self._maybe_promote(
                columns,
                index,
                Decision(verdict=Verdict.BENIGN, stage=Stage.OVERLOAD, eia=eia),
            )
        self.stats.overload_flagged += 1
        self._metrics.overload_flagged.inc()
        log.debug(
            "overload: suspect flagged unanalysed",
            extra={"flow_time_ms": columns.last[index], "action": "flagged"},
        )
        return self._attack(
            columns.record_at(index), eia, Stage.OVERLOAD, "unanalysed-suspect"
        )

    def _attack(
        self,
        record: FlowRecord,
        eia: EIACheck,
        stage: str,
        classification: str,
        *,
        scan: Optional[ScanVerdict] = None,
        neighbour: Optional[SearchResult] = None,
        protocol_class: Optional[str] = None,
    ) -> Decision:
        """An InFilter-chain attack verdict, subject to ensemble review.

        With the default composition this emits the alert directly; with
        an ensemble, the chain's verdict is one vote and the combiner may
        confirm (alert, with attribution) or suppress (benign, stage
        ``ensemble``) it.
        """
        attribution: Tuple[str, ...] = ()
        if self._ensemble is not None:
            self._metrics.chain_hit.inc()
            combined = self._combine(record, chain_attack=True)
            if not combined.attack:
                self._metrics.ensemble_suppressed.inc()
                return Decision(
                    verdict=Verdict.BENIGN,
                    stage=Stage.ENSEMBLE,
                    eia=eia,
                    scan=scan,
                    neighbour=neighbour,
                    protocol_class=protocol_class,
                )
            self._metrics.ensemble_confirmed.inc()
            attribution = combined.attribution
        return self._emit_attack(
            record,
            eia,
            stage,
            classification,
            scan=scan,
            neighbour=neighbour,
            protocol_class=protocol_class,
            attribution=attribution,
        )

    def _maybe_promote(
        self, columns: RowColumns, index: int, decision: Decision
    ) -> Decision:
        """Give the ensemble a chance to overrule a non-attack verdict.

        A no-op (returning ``decision`` untouched) unless more than one
        detector is composed.  A promoted flow becomes an attack at stage
        ``ensemble``, classified by the triggering detector's reason, and
        its alert carries the full attribution; EIA absorption bookkeeping
        from the chain's own (benign) assessment stands either way — set
        learning stays the chain's business.
        """
        if self._ensemble is None:
            return decision
        self._metrics.chain_clear.inc()
        record = columns.record_at(index)
        combined = self._combine(record, chain_attack=False)
        if not combined.attack:
            self._metrics.ensemble_clear.inc()
            return decision
        self._metrics.ensemble_promoted.inc()
        trigger = combined.trigger
        classification = (
            trigger.reason if trigger is not None and trigger.reason else "ensemble-vote"
        )
        return self._emit_attack(
            record,
            decision.eia,
            Stage.ENSEMBLE,
            classification,
            scan=decision.scan,
            neighbour=decision.neighbour,
            protocol_class=decision.protocol_class,
            absorbed=decision.absorbed,
            attribution=combined.attribution,
        )

    def _combine(self, record: FlowRecord, *, chain_attack: bool) -> EnsembleDecision:
        """Collect the auxiliary votes for one flow and fold them."""
        assert self._ensemble is not None
        aux_verdicts: List[DetectorVerdict] = [
            aux.observe(record) for aux in self.aux_detectors
        ]
        return self._ensemble.combine(chain_attack, aux_verdicts)

    def _emit_attack(
        self,
        record: FlowRecord,
        eia: EIACheck,
        stage: str,
        classification: str,
        *,
        scan: Optional[ScanVerdict] = None,
        neighbour: Optional[SearchResult] = None,
        protocol_class: Optional[str] = None,
        absorbed: bool = False,
        attribution: Tuple[str, ...] = (),
    ) -> Decision:
        self._alert_counter += 1
        alert = IdmefAlert.for_flow(
            f"infilter-{self._alert_counter:08d}",
            record,
            classification=classification,
            stage=stage,
            expected_peer=eia.expected_peer,
            detect_time_ms=record.last,
            severity="high" if stage == Stage.SCAN else "medium",
            attribution=attribution,
        )
        self.alert_sink.consume(alert)
        return Decision(
            verdict=Verdict.ATTACK,
            stage=stage,
            eia=eia,
            scan=scan,
            neighbour=neighbour,
            protocol_class=protocol_class,
            alert=alert,
            absorbed=absorbed,
        )
