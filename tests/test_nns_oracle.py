"""The NNS search against the literal Figures 6-8 transcription.

``NNSStructure.nearest`` defers its pick to the last non-empty scale and
reads traces off lane-prefix columns; :mod:`tests.reference_nns` walks
the whole ball, picks at every non-empty scale and takes every trace bit
as a 720-bit parity.  On a model trained the way ``benchmarks/e2e``
trains its detector (3,000 default-mix flows, seven protocol
subclusters) the two must agree on every answer, consume the table-pick
stream identically, and build the same scales.
"""

from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clusters import ClusterModel
from repro.core.config import NNSConfig
from repro.core.encoding import UnaryEncoder, parity_inner_product
from repro.core.nns import _lane_columns
from repro.flowgen import Dagflow, synthesize_trace
from repro.netflow.records import FlowRecord, FlowStats
from repro.util import SeededRng
from repro.util.errors import StateError

from tests.reference_nns import ReferenceNNS, answer_of

_SEED = 20050609
#: (m1, m2, m3, flood codes per class): the paper's parameters, a second
#: table per scale (the only setting that draws from the pick stream),
#: and the two other points of the A4 grid.  The literal search costs
#: ~1 ms a query on this model, so the off-paper points, which vary the
#: ball and the column width rather than the queries, take fewer.
PARAMETERS = [
    (1, 12, 3, 2_000),
    (2, 12, 3, 1_000),
    (1, 8, 2, 500),
    (1, 16, 4, 500),
]


@pytest.fixture(scope="module")
def training(eia_plan, target_prefix) -> List[FlowRecord]:
    rng = SeededRng(_SEED, "bench-train")
    dagflow = Dagflow(
        "trainer",
        target_prefix=target_prefix,
        udp_port=9000,
        source_blocks=eia_plan[0],
        rng=rng.fork("dagflow"),
    )
    trace = synthesize_trace(3_000, rng=rng.fork("trace"))
    return [labelled.record for labelled in dagflow.replay(trace)]


def _flood_codes(encoder: UnaryEncoder, name: str, count: int) -> List[int]:
    """Codes shaped like the ``flood_nns`` workload's flows: packets,
    octets and duration drawn wide, mostly far from the training data."""
    rnd = SeededRng(_SEED, "flood-codes").fork(name)
    codes = []
    for _ in range(count):
        packets = 1 + rnd.randrange(400)
        octets = packets * (28 + rnd.randrange(1_400))
        duration_ms = rnd.randrange(60_000)
        window_s = max(duration_ms, 1) / 1000.0
        codes.append(
            encoder.encode(
                FlowStats(
                    octets=octets,
                    packets=packets,
                    duration_ms=duration_ms,
                    bit_rate=octets * 8.0 / window_s,
                    packet_rate=packets / window_s,
                )
            )
        )
    return codes


@pytest.mark.parametrize("m1,m2,m3,flood", PARAMETERS)
def test_search_equals_the_literal_transcription(training, m1, m2, m3, flood):
    model = ClusterModel.train(training, NNSConfig(m1=m1, m2=m2, m3=m3))
    assert len(model.subclusters) == 7
    answered_at = set()
    for name, subcluster in model.subclusters.items():
        structure = subcluster.structure
        reference = ReferenceNNS(structure)
        # Training codes repeat heavily (29 distinct among dns's 484);
        # each distinct one is asked once, in training order.
        queries = list(dict.fromkeys(flow.encoded for flow in structure.flows))
        queries += [0, (1 << structure.dimension) - 1]
        queries += _flood_codes(model.encoder, name, flood)
        for query in queries:
            expected = reference.nearest(query)
            assert answer_of(structure, query) == expected, (name, hex(query))
            if expected is not None:
                answered_at.add(expected[2])
        assert structure._pick_rng.state_dict() == reference.pick_rng.state_dict()
        assert sorted(structure._scales) == reference.scales_built
        assert structure.scales_built == len(reference.scales_built)
    # Near and far queries must both have been compared.
    assert min(answered_at) == 1 and max(answered_at) > 100


class TestLaneColumns:
    LAYOUT = ((0, 7), (7, 1), (8, 12), (20, 5), (25, 9))
    DIMENSION = 34

    @settings(max_examples=200, deadline=None)
    @given(
        vectors=st.lists(
            st.integers(min_value=0, max_value=(1 << DIMENSION) - 1),
            min_size=1,
            max_size=24,
        ),
        data=st.data(),
    )
    def test_column_trace_equals_the_parities(self, vectors, data):
        lanes = tuple(
            data.draw(st.integers(min_value=0, max_value=bits))
            for _offset, bits in self.LAYOUT
        )
        code = 0
        for (offset, _bits), ones in zip(self.LAYOUT, lanes):
            code |= ((1 << ones) - 1) << offset
        expected = 0
        for bit_index, vector in enumerate(vectors):
            expected |= parity_inner_product(vector, code) << bit_index
        columns = _lane_columns(vectors, self.LAYOUT)
        trace = 0
        for column, ones in zip(columns, lanes):
            trace ^= column[ones]
        assert trace == expected
        assert [len(column) for column in columns] == [
            bits + 1 for _offset, bits in self.LAYOUT
        ]


def _structure_with_code(structure_state, position: int, code: int):
    """A copy of an ``nns`` section with one flow's ``encoded`` replaced."""
    flows = list(structure_state["flows"])
    flows[position] = {**flows[position], "encoded": code}
    return {**structure_state, "flows": flows}


def _model_with_code(state, name: str, position: int, code: int):
    """The same, one level up: inside class ``name`` of a ``model`` section."""
    section = state["classes"][name]
    structure = _structure_with_code(section["structure"], position, code)
    return {
        "classes": {**state["classes"], name: {**section, "structure": structure}}
    }


class TestCorruptTrainingCodes:
    """A checkpointed code that is not unary must not be filed silently."""

    @pytest.fixture(scope="class")
    def state(self, training) -> Tuple[ClusterModel, Dict]:
        model = ClusterModel.train(training[:400], NNSConfig())
        return model, model.state_dict()

    def test_round_trip_of_an_honest_state(self, state):
        model, section = state
        restored = ClusterModel.from_state(model.config, section)
        assert restored.state_dict() == section

    def test_hole_in_a_lane_is_refused(self, state):
        model, section = state
        entry = section["classes"]["udp"]["structure"]["flows"][3]
        ones = model.encoder.decode_indices(entry["encoded"])[0]
        assert ones + 1 < model.config.features[0].bits
        # ...1 1 0 1: a one past the first zero of the octets lane.
        corrupt = _model_with_code(
            section, "udp", 3, entry["encoded"] | 1 << (ones + 1)
        )
        with pytest.raises(StateError, match=rf"'udp'.*flow {entry['index']}\b"):
            ClusterModel.from_state(model.config, corrupt)

    def test_overflow_of_the_dimension_is_refused(self, state):
        model, section = state
        entry = section["classes"]["http"]["structure"]["flows"][0]
        corrupt = _model_with_code(
            section, "http", 0, entry["encoded"] | 1 << model.config.dimension
        )
        with pytest.raises(StateError, match=rf"'http'.*flow {entry['index']}\b"):
            ClusterModel.from_state(model.config, corrupt)

    def test_structure_load_state_refuses_it_too(self, state):
        model, section = state
        structure = model.subclusters["udp"].structure
        saved = structure.state_dict()
        corrupt = _structure_with_code(saved, 0, -1)
        with pytest.raises(StateError, match="flow 0"):
            structure.load_state(corrupt)
        # The refused load left the structure as it was.
        assert structure.state_dict() == saved
