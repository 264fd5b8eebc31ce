"""Training clusters: partition, thresholds, and per-class NNS structures.

Section 5.1.3(b)–(d): the *Normal cluster* (all training flows) is
partitioned into protocol-specific subclusters — http, smtp, ftp, dns,
udp (non-dns), tcp (everything tcp without its own subcluster), icmp —
because flows to a single application vary less than flows in general.
Each subcluster gets a Hamming-distance threshold (a high quantile of its
intra-cluster nearest-neighbour distances, times a slack factor) and its
own KOR search structure.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.config import NNSConfig
from repro.core.encoding import UnaryEncoder
from repro.core.nns import NNSStructure, SearchResult, TrainingFlow
from repro.core.state import StateDict, stateful
from repro.netflow.records import (
    PORT_DNS,
    PORT_FTP,
    PORT_HTTP,
    PORT_SMTP,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    FlowRecord,
)
from repro.util.errors import StateError, TrainingError
from repro.util.rng import SeededRng

__all__ = [
    "PROTOCOL_CLASSES",
    "protocol_class",
    "NormalCluster",
    "SubCluster",
    "ClusterModel",
]

PROTOCOL_CLASSES: Tuple[str, ...] = (
    "http",
    "smtp",
    "ftp",
    "dns",
    "udp",
    "tcp",
    "icmp",
    "other",
)

_TCP_SERVICES = {PORT_HTTP: "http", PORT_SMTP: "smtp", PORT_FTP: "ftp"}

#: How many flows of a subcluster probe its threshold calibration; a
#: larger subcluster is probed at a deterministic stride sample of this
#: many.  The cap fixes *which* flows are sampled, and so the
#: reproduction's thresholds.  It does not bound cost: calibration works
#: over distinct codes (:func:`_calibrate_threshold`).
THRESHOLD_SAMPLE_CAP = 400


def protocol_class(record: FlowRecord) -> str:
    """The subcluster a flow belongs to (Section 5.1.3(c))."""
    protocol = record.key.protocol
    if protocol == PROTO_TCP:
        return _TCP_SERVICES.get(record.key.dst_port, "tcp")
    if protocol == PROTO_UDP:
        return "dns" if record.key.dst_port == PORT_DNS else "udp"
    if protocol == PROTO_ICMP:
        return "icmp"
    return "other"


class NormalCluster:
    """The unpartitioned training cluster (Section 5.1.3(b))."""

    def __init__(self) -> None:
        self._records: List[FlowRecord] = []

    def add(self, record: FlowRecord) -> None:
        self._records.append(record)

    def extend(self, records: Iterable[FlowRecord]) -> None:
        self._records.extend(records)

    def __len__(self) -> int:
        return len(self._records)

    def partition(self) -> Dict[str, List[FlowRecord]]:
        """Split into protocol-specific groups; empty classes are absent."""
        groups: Dict[str, List[FlowRecord]] = {}
        for record in self._records:
            groups.setdefault(protocol_class(record), []).append(record)
        return groups


@dataclass
class SubCluster:
    """One protocol class: its NNS structure and distance threshold."""

    name: str
    structure: NNSStructure
    threshold: int
    size: int

    def assess(self, encoded: int) -> Tuple[bool, Optional[SearchResult]]:
        """(is_normal, neighbour): normal iff within the threshold."""
        result = self.structure.nearest(encoded)
        if result is None:
            return False, None
        return result.distance <= self.threshold, result


@stateful("model")
class ClusterModel:
    """Everything the NNS analysis needs at search time.

    Build with :meth:`train`; afterwards :meth:`assess` classifies a flow
    against its protocol class's subcluster.  Flows of a class with no
    training data are reported as having no model (the pipeline decides
    whether that means "attack").
    """

    def __init__(
        self,
        encoder: UnaryEncoder,
        subclusters: Dict[str, SubCluster],
        config: NNSConfig,
    ) -> None:
        self.encoder = encoder
        self.subclusters = subclusters
        self.config = config

    @classmethod
    def train(
        cls,
        records: Sequence[FlowRecord],
        config: NNSConfig = NNSConfig(),
        *,
        rng: Optional[SeededRng] = None,
    ) -> "ClusterModel":
        """Section 5.1.3(b)–(d): partition, thresholds, structures."""
        if not records:
            raise TrainingError("training requires at least one flow")
        if rng is None:
            rng = SeededRng(config.seed, "nns")
        encoder = UnaryEncoder(config.features)
        cluster = NormalCluster()
        cluster.extend(records)
        subclusters: Dict[str, SubCluster] = {}
        for name, group in sorted(cluster.partition().items()):
            flows = [
                TrainingFlow(index=i, stats=stats, encoded=encoder.encode(stats))
                for i, stats in enumerate(r.stats() for r in group)
            ]
            threshold = _calibrate_threshold(flows, config)
            structure = NNSStructure(
                encoder, config, flows, rng=rng.fork(f"cluster-{name}")
            )
            subclusters[name] = SubCluster(
                name=name,
                structure=structure,
                threshold=threshold,
                size=len(flows),
            )
        return cls(encoder=encoder, subclusters=subclusters, config=config)

    def has_model_for(self, record: FlowRecord) -> bool:
        return protocol_class(record) in self.subclusters

    def assess(
        self, record: FlowRecord
    ) -> Tuple[Optional[bool], Optional[SearchResult], str]:
        """(is_normal | None, neighbour, class_name) for one flow.

        ``is_normal`` is None when the flow's class has no subcluster.
        """
        name = protocol_class(record)
        subcluster = self.subclusters.get(name)
        if subcluster is None:
            return None, None, name
        encoded = self.encoder.encode(record.stats())
        is_normal, result = subcluster.assess(encoded)
        return is_normal, result, name

    def thresholds(self) -> Dict[str, int]:
        return {name: sc.threshold for name, sc in self.subclusters.items()}

    @property
    def pick_draws(self) -> int:
        """Pick-RNG draws of every structure since it was built or
        loaded.  The model's state is fixed at ``train()`` but for these
        cursors, which searches advance only at ``M1`` > 1: a changed
        count is a changed :meth:`state_dict`."""
        return sum(
            sc.structure.pick_draws for sc in self.subclusters.values()
        )

    # -- the stage-state protocol --------------------------------------------

    def state_dict(self) -> StateDict:
        """The *derived* model: per-class thresholds, sizes, structures.

        This is what makes warm restarts retrain-free — loading this
        section rebuilds the trained model directly, never replaying
        training records through :meth:`train`.
        """
        return {
            "classes": {
                name: {
                    "threshold": sc.threshold,
                    "size": sc.size,
                    "structure": sc.structure.state_dict(),
                }
                for name, sc in sorted(self.subclusters.items())
            }
        }

    def load_state(self, state: StateDict) -> None:
        subclusters: Dict[str, SubCluster] = {}
        for name, section in state["classes"].items():
            try:
                structure = NNSStructure.from_state(
                    self.encoder, self.config, section["structure"]
                )
            except StateError as error:
                raise StateError(f"model class {name!r}: {error}") from error
            subclusters[name] = SubCluster(
                name=name,
                structure=structure,
                threshold=int(section["threshold"]),
                size=int(section["size"]),
            )
        self.subclusters = subclusters

    @classmethod
    def from_state(cls, config: NNSConfig, state: StateDict) -> "ClusterModel":
        """Rebuild a trained model from its captured state section."""
        model = cls(UnaryEncoder(config.features), {}, config)
        model.load_state(state)
        return model


def _calibrate_threshold(flows: Sequence[TrainingFlow], config: NNSConfig) -> int:
    """Quantile of leave-one-out nearest-neighbour distances, with slack.

    The probes are every flow, or a stride sample of
    :data:`THRESHOLD_SAMPLE_CAP` of them.  A probe's leave-one-out
    distance depends only on its code and the cluster's code multiset:
    0 when another flow shares the code, else the distance to the
    closest *other* distinct code.  So it is computed once per distinct
    code, over distinct codes — training clusters repeat codes heavily —
    and equals the minimum over every other flow by construction.

    A single-flow cluster gets a small floor threshold: anything not very
    close to the lone exemplar is anomalous.
    """
    if len(flows) < 2:
        return max(1, int(0.02 * config.dimension))
    sample: Sequence[TrainingFlow] = flows
    if len(flows) > THRESHOLD_SAMPLE_CAP:
        stride = len(flows) / THRESHOLD_SAMPLE_CAP
        sample = [flows[int(i * stride)] for i in range(THRESHOLD_SAMPLE_CAP)]
    multiplicity = Counter(flow.encoded for flow in flows)
    nearest: Dict[int, int] = {}
    distances: List[int] = []
    for probe in sample:
        code = probe.encoded
        distance = nearest.get(code)
        if distance is None:
            if multiplicity[code] > 1:
                distance = 0
            else:
                distance = min(
                    (code ^ other).bit_count()
                    for other in multiplicity
                    if other != code
                )
            nearest[code] = distance
        distances.append(distance)
    distances.sort()
    position = min(
        len(distances) - 1,
        max(0, math.ceil(config.threshold_quantile * len(distances)) - 1),
    )
    base = distances[position]
    return max(1, int(base * config.threshold_slack))
