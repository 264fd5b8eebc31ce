"""Tests for the KOR approximate nearest-neighbour structure."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import FeatureSpec, NNSConfig
from repro.core.encoding import UnaryEncoder, hamming
from repro.core.nns import NNSStructure, TrainingFlow, _ball_deltas
from repro.netflow.records import FlowStats
from repro.util.errors import TrainingError
from repro.util.rng import SeededRng


def small_config(**overrides):
    defaults = dict(
        features=(
            FeatureSpec("octets", 0, 100, 16),
            FeatureSpec("packets", 0, 100, 16),
            FeatureSpec("duration_ms", 0, 100, 16),
            FeatureSpec("bit_rate", 0, 100, 16),
            FeatureSpec("packet_rate", 0, 100, 16),
        ),
        m1=2,
        m2=8,
        m3=3,
    )
    defaults.update(overrides)
    return NNSConfig(**defaults)


def flow(index, octets, packets=50):
    stats = FlowStats(
        octets=octets,
        packets=packets,
        duration_ms=50,
        bit_rate=50.0,
        packet_rate=50.0,
    )
    return stats


def build(values, config=None):
    config = config or small_config()
    encoder = UnaryEncoder(config.features)
    flows = [
        TrainingFlow(index=i, stats=flow(i, v), encoded=encoder.encode(flow(i, v)))
        for i, v in enumerate(values)
    ]
    structure = NNSStructure(encoder, config, flows, rng=SeededRng(55))
    return encoder, structure


class TestBallDeltas:
    def test_counts(self):
        # radius < 3 over 12 bits: C(12,0)+C(12,1)+C(12,2) = 79.
        assert len(_ball_deltas(12, 3)) == 79
        assert len(_ball_deltas(8, 1)) == 1

    def test_weights_below_radius(self):
        deltas = _ball_deltas(10, 3)
        assert all(d.bit_count() < 3 for d in deltas)
        assert len(set(deltas)) == len(deltas)


class TestConstruction:
    def test_rejects_empty_training(self):
        config = small_config()
        encoder = UnaryEncoder(config.features)
        with pytest.raises(TrainingError):
            NNSStructure(encoder, config, [], rng=SeededRng(1))

    def test_scales_built_lazily(self):
        _encoder, structure = build([10, 20, 30])
        assert structure.scales_built == 0
        structure.nearest(structure.flows[0].encoded)
        assert 0 < structure.scales_built <= structure.dimension

    def test_default_paper_parameters(self):
        config = NNSConfig()
        assert config.dimension == 720
        assert (config.m1, config.m2, config.m3) == (1, 12, 3)


class TestSearch:
    def test_exact_match_found_at_distance_zero(self):
        _encoder, structure = build([10, 40, 70])
        for training in structure.flows:
            result = structure.nearest(training.encoded)
            assert result is not None
            assert result.distance == 0
            assert result.flow.encoded == training.encoded

    def test_near_query_finds_close_neighbour(self):
        encoder, structure = build([10, 50, 90])
        query = encoder.encode(flow(99, 52))
        result = structure.nearest(query)
        assert result is not None
        exact = structure.nearest_exact(query)
        # The KOR search is approximate; it must come close to the true
        # nearest neighbour (within a small factor at these scales).
        assert result.distance <= max(3 * exact.distance, 10)

    def test_far_query_reports_large_distance(self):
        encoder, structure = build([10, 12, 14])
        query = encoder.encode(flow(99, 100, packets=100))
        result = structure.nearest(query)
        exact = structure.nearest_exact(query)
        assert exact.distance > 0
        if result is not None:
            assert result.distance >= exact.distance

    def test_search_is_deterministic_for_same_structure(self):
        encoder, structure = build([10, 30, 50, 70], small_config(m1=1))
        query = encoder.encode(flow(99, 42))
        first = structure.nearest(query)
        second = structure.nearest(query)
        assert first == second

    def test_nearest_exact_brute_force(self):
        encoder, structure = build([10, 50, 90])
        query = encoder.encode(flow(99, 48))
        exact = structure.nearest_exact(query)
        distances = [hamming(f.encoded, query) for f in structure.flows]
        assert exact.distance == min(distances)

    def test_single_flow_cluster(self):
        encoder, structure = build([42])
        result = structure.nearest(encoder.encode(flow(0, 42)))
        assert result is not None and result.distance == 0

    def test_approximation_quality_over_many_queries(self):
        values = list(range(0, 100, 5))
        encoder, structure = build(values)
        worst_ratio = 0.0
        for probe in range(0, 100, 3):
            query = encoder.encode(flow(999, probe))
            got = structure.nearest(query)
            exact = structure.nearest_exact(query)
            assert got is not None
            if exact.distance:
                worst_ratio = max(worst_ratio, got.distance / exact.distance)
            else:
                assert got.distance <= small_config().m3
        # KOR guarantees (1+eps) approximation w.h.p.; allow a loose bound.
        assert worst_ratio <= 6.0


class TestEagerMode:
    def test_build_all_scales(self):
        config = small_config(
            features=(
                FeatureSpec("octets", 0, 10, 4),
                FeatureSpec("packets", 0, 10, 4),
                FeatureSpec("duration_ms", 0, 10, 4),
                FeatureSpec("bit_rate", 0, 10, 4),
                FeatureSpec("packet_rate", 0, 10, 4),
            )
        )
        _encoder, structure = build([1, 5, 9], config)
        structure.build_all_scales()
        assert structure.scales_built == structure.dimension


def _unary(encoder, lanes):
    """The unary code with these per-lane interval indices."""
    code = 0
    for (offset, _bits), ones in zip(encoder.lane_layout, lanes):
        code |= ((1 << ones) - 1) << offset
    return code


def _structure_over(codes, config, *, indices=None, seed=55):
    """A structure over raw unary codes (their stats are never read)."""
    encoder = UnaryEncoder(config.features)
    stats = flow(0, 0)
    indices = range(len(codes)) if indices is None else indices
    flows = [
        TrainingFlow(index=index, stats=stats, encoded=code)
        for index, code in zip(indices, codes)
    ]
    return encoder, NNSStructure(encoder, config, flows, rng=SeededRng(seed))


class TestOccupancyBitmap:
    """Each table's ``occupied`` bitmap is its M3-ball occupancy."""

    FEATURES = tuple(
        FeatureSpec(name, 0, 10, bits)
        for name, bits in zip(FlowStats.FEATURE_NAMES, (2, 1, 1, 2, 1))
    )

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_bit_is_set_iff_a_stored_trace_lies_in_the_ball(self, data):
        m2 = data.draw(st.integers(min_value=1, max_value=16), label="m2")
        m3 = data.draw(
            st.one_of(st.just(m2), st.integers(min_value=1, max_value=m2)),
            label="m3",
        )
        m1 = data.draw(st.integers(min_value=1, max_value=2), label="m1")
        config = NNSConfig(features=self.FEATURES, m1=m1, m2=m2, m3=m3)
        lanes = data.draw(
            st.lists(
                st.tuples(*(st.integers(0, spec.bits) for spec in self.FEATURES)),
                min_size=1,
                max_size=6,
            ),
            label="lanes",
        )
        encoder = UnaryEncoder(config.features)
        codes = [_unary(encoder, indices) for indices in lanes]
        _encoder, structure = _structure_over(codes, config)
        structure.build_all_scales()
        deltas = set(_ball_deltas(m2, m3))
        for tables in structure._scales.values():
            for table in tables:
                # (e ^ d) is a stored trace t for a ball delta d exactly
                # when e ^ t is a ball delta: walk the shorter side.
                expected = bytearray(((1 << m2) + 7) >> 3)
                for entry in range(1 << m2):
                    if any((entry ^ trace) in deltas for trace in table.table):
                        expected[entry >> 3] |= 1 << (entry & 7)
                assert table.occupied == bytes(expected)

    def test_paper_parameters_cost_512_bytes_per_table(self):
        _encoder, structure = build([10, 50, 90], small_config(m1=1, m2=12))
        structure.nearest(structure.flows[0].encoded)
        for tables in structure._scales.values():
            assert [len(table.occupied) for table in tables] == [512]

    def test_restore_drops_the_bitmaps_and_rebuilds_them_byte_equal(self):
        encoder, structure = build([10, 30, 50, 70, 90])
        structure.build_all_scales()
        before = {
            scale: [table.occupied for table in tables]
            for scale, tables in structure._scales.items()
        }
        state = structure.state_dict()
        restored = NNSStructure.from_state(encoder, structure.config, state)
        structure.load_state(state)
        for fresh in (restored, structure):
            assert fresh.scales_built == 0 and fresh._scales == {}
            fresh.build_all_scales()
            assert {
                scale: [table.occupied for table in tables]
                for scale, tables in fresh._scales.items()
            } == before


class TestPick:
    """The one pick, at the last non-empty scale: the closest flow in the
    ball by true Hamming distance, ties to the lowest training index."""

    def test_ties_across_buckets_go_to_the_lowest_index(self):
        config = small_config(m1=1, m2=6, m3=3)
        encoder = UnaryEncoder(config.features)
        # Training codes on a grid of two lanes; each query sits between
        # four of them, all at distance 2.
        codes = [
            _unary(encoder, (i, j, 8, 8, 8))
            for i in range(0, 17, 4)
            for j in range(0, 17, 4)
        ]
        # Training indices run against list (and so bucket) order: a pick
        # that kept the first candidate found would take the highest.
        _encoder, structure = _structure_over(
            codes, config, indices=range(len(codes) - 1, -1, -1)
        )
        deltas = _ball_deltas(config.m2, config.m3)
        cross_bucket_ties = 0
        for i in range(2, 16, 4):
            for j in range(2, 16, 4):
                query = _unary(encoder, (i, j, 8, 8, 8))
                result = structure.nearest(query)
                assert result is not None
                table = structure._scales[result.scale][0]
                trace = table.trace(encoder.decode_indices(query))
                ball = [
                    (trace ^ delta, candidate)
                    for delta in deltas
                    for candidate in table.table.get(trace ^ delta, ())
                ]
                closest = min(hamming(f.encoded, query) for _key, f in ball)
                tied = [
                    (key, f) for key, f in ball
                    if hamming(f.encoded, query) == closest
                ]
                assert result.distance == closest
                assert result.distance == hamming(result.flow.encoded, query)
                assert result.flow.index == min(f.index for _key, f in tied)
                if len({key for key, _f in tied}) > 1:
                    cross_bucket_ties += 1
        assert cross_bucket_ties > 0

    def test_duplicate_codes_go_to_the_earliest_flow(self):
        encoder, structure = build([10, 42, 42, 42, 80])
        result = structure.nearest(encoder.encode(flow(0, 42)))
        assert result is not None
        assert (result.flow.index, result.distance) == (1, 0)
        # Listed out of index order, the lowest index still wins.
        config = small_config()
        code = encoder.encode(flow(0, 42))
        _encoder, shuffled = _structure_over(
            [code, code, code], config, indices=[7, 3, 5]
        )
        result = shuffled.nearest(code)
        assert result is not None and result.flow.index == 3
