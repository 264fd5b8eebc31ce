"""Tests for protocol classification, cluster partition, and thresholds."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clusters import (
    ClusterModel,
    NormalCluster,
    SubCluster,
    _calibrate_threshold,
    protocol_class,
)
from repro.core.config import NNSConfig
from repro.core.encoding import hamming
from repro.core.nns import TrainingFlow
from repro.netflow.records import (
    PORT_DNS,
    PORT_FTP,
    PORT_HTTP,
    PORT_SMTP,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    FlowKey,
    FlowRecord,
)
from repro.util.errors import TrainingError
from repro.util.rng import SeededRng


def record(proto=PROTO_TCP, dport=PORT_HTTP, octets=1000, packets=10, duration=1000):
    return FlowRecord(
        key=FlowKey(src_addr=1, dst_addr=2, protocol=proto, dst_port=dport),
        packets=packets,
        octets=octets,
        first=0,
        last=duration,
    )


class TestProtocolClass:
    @pytest.mark.parametrize(
        "proto,dport,expected",
        [
            (PROTO_TCP, PORT_HTTP, "http"),
            (PROTO_TCP, PORT_SMTP, "smtp"),
            (PROTO_TCP, PORT_FTP, "ftp"),
            (PROTO_TCP, 8080, "tcp"),
            (PROTO_UDP, PORT_DNS, "dns"),
            (PROTO_UDP, 1434, "udp"),
            (PROTO_ICMP, 0, "icmp"),
            (47, 0, "other"),
        ],
    )
    def test_mapping(self, proto, dport, expected):
        assert protocol_class(record(proto=proto, dport=dport)) == expected


class TestNormalCluster:
    def test_partition_groups_by_class(self):
        cluster = NormalCluster()
        cluster.extend(
            [
                record(),
                record(dport=8080),
                record(proto=PROTO_UDP, dport=PORT_DNS),
            ]
        )
        groups = cluster.partition()
        assert set(groups) == {"http", "tcp", "dns"}
        assert len(groups["http"]) == 1

    def test_len(self):
        cluster = NormalCluster()
        cluster.add(record())
        assert len(cluster) == 1


class TestClusterModel:
    def training_records(self):
        records = []
        for index in range(60):
            records.append(record(octets=900 + index * 10, packets=8 + index % 5))
            records.append(
                record(
                    proto=PROTO_UDP,
                    dport=PORT_DNS,
                    octets=120 + index,
                    packets=1,
                    duration=40,
                )
            )
        return records

    def test_train_requires_records(self):
        with pytest.raises(TrainingError):
            ClusterModel.train([], NNSConfig())

    def test_subclusters_match_partition(self):
        model = ClusterModel.train(self.training_records(), NNSConfig())
        assert set(model.subclusters) == {"http", "dns"}
        assert model.subclusters["http"].size == 60

    def test_thresholds_positive(self):
        model = ClusterModel.train(self.training_records(), NNSConfig())
        for name, threshold in model.thresholds().items():
            assert threshold >= 1, name

    def test_in_distribution_flow_assessed_normal(self):
        model = ClusterModel.train(self.training_records(), NNSConfig())
        is_normal, neighbour, name = model.assess(record(octets=1100, packets=9))
        assert name == "http"
        assert is_normal is True
        assert neighbour is not None

    def test_outlier_assessed_anomalous(self):
        model = ClusterModel.train(self.training_records(), NNSConfig())
        weird = record(octets=140_000, packets=3, duration=10)
        is_normal, _neighbour, name = model.assess(weird)
        assert name == "http"
        assert is_normal is False

    def test_unmodelled_class_reports_none(self):
        model = ClusterModel.train(self.training_records(), NNSConfig())
        is_normal, neighbour, name = model.assess(record(proto=PROTO_ICMP, dport=0))
        assert is_normal is None
        assert neighbour is None
        assert name == "icmp"
        assert not model.has_model_for(record(proto=PROTO_ICMP, dport=0))

    def test_training_deterministic_given_seed(self):
        records = self.training_records()
        a = ClusterModel.train(records, NNSConfig(), rng=SeededRng(9))
        b = ClusterModel.train(records, NNSConfig(), rng=SeededRng(9))
        assert a.thresholds() == b.thresholds()
        query = record(octets=5000, packets=40)
        assert a.assess(query)[0] == b.assess(query)[0]

    def test_single_flow_class_gets_floor_threshold(self):
        records = self.training_records() + [record(proto=PROTO_ICMP, dport=0, octets=64, packets=1)]
        model = ClusterModel.train(records, NNSConfig())
        assert model.subclusters["icmp"].threshold >= 1


# -- threshold calibration against the all-flows sweep ------------------------


def reference_threshold(flows, config):
    """The leave-one-out sweep written out: every sampled probe's nearest
    *other flow*, by training index, over the whole cluster.  400 is the
    sample cap the reproduction's thresholds were calibrated with."""
    if len(flows) < 2:
        return max(1, int(0.02 * config.dimension))
    sample = flows
    if len(flows) > 400:
        stride = len(flows) / 400
        sample = [flows[int(i * stride)] for i in range(400)]
    distances = sorted(
        min(
            hamming(probe.encoded, other.encoded)
            for other in flows
            if other.index != probe.index
        )
        for probe in sample
    )
    position = min(
        len(distances) - 1,
        max(0, math.ceil(config.threshold_quantile * len(distances)) - 1),
    )
    return max(1, int(distances[position] * config.threshold_slack))


_STATS = record().stats()

codes = st.integers(min_value=0, max_value=2**720 - 1)
configs = st.builds(
    NNSConfig,
    threshold_quantile=st.sampled_from([0.3, 0.5, 0.9, 0.99, 1.0]),
    threshold_slack=st.sampled_from([1.0, 1.25, 2.5]),
)


def as_flows(encoded):
    return [TrainingFlow(index=i, stats=_STATS, encoded=c) for i, c in enumerate(encoded)]


@st.composite
def duplicated_codes(draw, min_size=1, max_size=60):
    """A cluster drawn from a few codes, most of them repeated."""
    palette = draw(st.lists(codes, min_size=1, max_size=6, unique=True))
    picks = draw(
        st.lists(
            st.integers(0, len(palette) - 1), min_size=min_size, max_size=max_size
        )
    )
    return [palette[pick] for pick in picks]


@st.composite
def beyond_the_cap(draw):
    """More flows than the sample cap: a few heavily repeated codes plus
    some singletons, shuffled, so the stride sample repeats codes."""
    palette = draw(st.lists(codes, min_size=1, max_size=12, unique=True))
    singles = draw(st.lists(codes, max_size=8, unique=True))
    rnd = draw(st.randoms(use_true_random=False))
    size = draw(st.integers(401, 700))
    encoded = [rnd.choice(palette) for _ in range(size - len(singles))] + singles
    rnd.shuffle(encoded)
    return encoded


class TestCalibrationOracle:
    @given(duplicated_codes(), configs)
    @settings(max_examples=150, deadline=None)
    def test_duplicate_heavy_clusters(self, encoded, config):
        flows = as_flows(encoded)
        assert _calibrate_threshold(flows, config) == reference_threshold(flows, config)

    @given(st.lists(codes, min_size=1, max_size=40, unique=True), configs)
    @settings(max_examples=80, deadline=None)
    def test_all_singleton_codes(self, encoded, config):
        flows = as_flows(encoded)
        assert _calibrate_threshold(flows, config) == reference_threshold(flows, config)

    @given(codes, st.integers(1, 30), configs)
    @settings(max_examples=40, deadline=None)
    def test_all_identical_codes(self, code, size, config):
        flows = as_flows([code] * size)
        assert _calibrate_threshold(flows, config) == reference_threshold(flows, config)

    @given(codes, codes, configs)
    @settings(max_examples=60, deadline=None)
    def test_two_flows(self, first, second, config):
        flows = as_flows([first, second])
        assert _calibrate_threshold(flows, config) == reference_threshold(flows, config)

    @given(beyond_the_cap(), configs)
    @settings(max_examples=12, deadline=None)
    def test_more_flows_than_the_sample_cap(self, encoded, config):
        flows = as_flows(encoded)
        assert _calibrate_threshold(flows, config) == reference_threshold(flows, config)

    def test_trained_model_equals_one_built_on_reference_thresholds(
        self, trained_detector
    ):
        model = trained_detector.model
        assert model is not None
        assert max(sc.size for sc in model.subclusters.values()) > 400
        rebuilt = ClusterModel(
            model.encoder,
            {
                name: SubCluster(
                    name=name,
                    structure=sc.structure,
                    threshold=reference_threshold(sc.structure.flows, model.config),
                    size=sc.size,
                )
                for name, sc in model.subclusters.items()
            },
            model.config,
        )
        assert model.state_dict() == rebuilt.state_dict()
