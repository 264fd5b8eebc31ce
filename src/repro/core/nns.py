"""Approximate nearest-neighbour search in Hamming space (Section 4.2).

Implements the Kushilevitz–Ostrovsky–Rabani construction the paper uses
([KOR], Figures 6–8): per distance scale ``t`` in ``[1, d]`` a
substructure holds ``M1`` trace tables; each table is keyed by an
``M2``-bit *trace* — the GF(2) inner products of the flow's unary encoding
with ``M2`` random test vectors whose bits are one with probability
``b/2 = 1/(4t)``; a training flow occupies every table entry within
Hamming ball radius ``M3`` of its own trace.  The search (Figure 8) binary
searches the scale axis: a non-empty entry at scale ``t`` means a training
flow is probably within distance ~``t``, so the search continues on
smaller scales, and the flow in the last non-empty entry visited is
returned.

Three engineering notes, all behaviour-preserving:

* tables store each flow under its *exact* trace and the probe walks the
  radius-``M3`` ball around the query trace — set-equivalent to the
  paper's ball *insertion*, but O(1) instead of O(ball) per flow insert;
* scales are built lazily on first probe: a binary search touches
  O(log d) of the ``d`` scales, so eager construction of all 720 would be
  ~70x wasted work.  ``build_all_scales`` exists for exhaustive tests;
* the search does only what Figure 8 uses.  *One bit per scale*: the
  binary search branches only on whether any entry of the query's
  ``M3``-ball is occupied, so each table keeps a derived 2^``M2``-bit
  bitmap (512 B at ``M2`` = 12) with bit ``e`` set iff a stored trace
  lies in the ``M3``-ball of ``e``, and a probed scale costs one bit
  read.  *Deferred pick*: the candidates are gathered and the closest
  one picked once, at the last non-empty scale, which is the only pick
  Figure 8 returns.  *Lane-prefix traces*: a unary code is, per feature
  lane, ``I`` ones then zeros, so its GF(2) inner product with a test
  vector is the XOR over lanes of the parity of the vector's first
  ``I`` lane bits.  Each table keeps those prefix parities — per lane,
  ``bits + 1`` words of ``M2`` bits — and a trace is one lookup per
  lane XORed together instead of ``M2`` 720-bit ``AND`` + popcounts.
  Exact for unary codes and only for them, which is why ``load_state``
  refuses any other code.  ``tests/reference_nns.py`` keeps the literal
  search (parity traces, full ball walk, a pick at every non-empty
  scale) as the oracle.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import NNSConfig
from repro.core.encoding import UnaryEncoder, hamming
from repro.core.state import StateDict, stateful
from repro.netflow.records import FlowStats
from repro.util.errors import StateError, TrainingError
from repro.util.rng import SeededRng

__all__ = ["TrainingFlow", "SearchResult", "NNSStructure"]


@dataclass(frozen=True)
class TrainingFlow:
    """One training point: its statistics and unary encoding."""

    index: int
    stats: FlowStats
    encoded: int


@dataclass(frozen=True)
class SearchResult:
    """The neighbour the search returned, with its exact distance."""

    flow: TrainingFlow
    distance: int
    scale: int


def _ball_deltas(m2: int, m3: int) -> Tuple[int, ...]:
    """All m2-bit XOR masks with fewer than ``m3`` bits set.

    XORing the query trace with each delta enumerates exactly the table
    entries whose Hamming distance from the trace is < m3.
    """
    deltas: List[int] = [0]
    for weight in range(1, m3):
        for positions in combinations(range(m2), weight):
            mask = 0
            for position in positions:
                mask |= 1 << position
            deltas.append(mask)
    return tuple(deltas)


def _lane_columns(
    test_vectors: Sequence[int], layout: Sequence[Tuple[int, int]]
) -> Tuple["array[int]", ...]:
    """Per lane, the trace contribution of every unary prefix length.

    Bit ``k`` of ``columns[lane][i]`` is the parity of test vector ``k``
    over the lane's first ``i`` positions, so the trace of a unary code
    with interval indices ``(i0, i1, ...)`` is
    ``columns[0][i0] ^ columns[1][i1] ^ ...``.  Items are 32-bit:
    ``NNSConfig`` caps ``m2`` at 24.
    """
    columns: List["array[int]"] = []
    for offset, bits in layout:
        # steps[i]: the vectors with a one at lane position i - 1, i.e.
        # whose prefix parity flips between lengths i - 1 and i.
        steps = [0] * (bits + 1)
        lane_mask = (1 << bits) - 1
        for bit_index, vector in enumerate(test_vectors):
            remaining = (vector >> offset) & lane_mask
            while remaining:
                lowest = remaining & -remaining
                steps[lowest.bit_length()] |= 1 << bit_index
                remaining ^= lowest
        word = 0
        for length in range(1, bits + 1):
            word ^= steps[length]
            steps[length] = word
        columns.append(array("I", steps))
    return tuple(columns)


class _TraceTable:
    """One T_ij: the trace-keyed flow table and its lane-prefix columns.

    The ``M2`` test vectors are drawn, folded into ``columns`` (see
    :func:`_lane_columns`) and dropped: every trace the table ever
    needs, a training flow's or a query's, comes from the columns.
    ``occupied`` is the 2^``M2``-bit ball-occupancy bitmap the binary
    search reads: bit ``e`` (``occupied[e >> 3] >> (e & 7) & 1``) is set
    iff ``e == trace ^ delta`` for a stored trace and a ball delta.
    Derived from ``table``, so it is never checkpointed.
    """

    __slots__ = ("columns", "table", "occupied")

    def __init__(
        self,
        flows: Sequence[TrainingFlow],
        flow_lanes: Sequence[Tuple[int, ...]],
        layout: Sequence[Tuple[int, int]],
        dimension: int,
        m2: int,
        deltas: Sequence[int],
        b: float,
        rng: SeededRng,
    ) -> None:
        self.columns = _lane_columns(
            [_random_test_vector(dimension, b / 2.0, rng) for _ in range(m2)],
            layout,
        )
        self.table: Dict[int, List[TrainingFlow]] = {}
        for flow, lanes in zip(flows, flow_lanes):
            self.table.setdefault(self.trace(lanes), []).append(flow)
        occupied = bytearray(((1 << m2) + 7) >> 3)
        for entry in {trace ^ delta for trace in self.table for delta in deltas}:
            occupied[entry >> 3] |= 1 << (entry & 7)
        self.occupied = bytes(occupied)

    def trace(self, lanes: Sequence[int]) -> int:
        """The M2-bit trace of the unary code with these interval indices."""
        trace = 0
        for column, index in zip(self.columns, lanes):
            trace ^= column[index]
        return trace


def _random_test_vector(dimension: int, probability_of_one: float, rng: SeededRng) -> int:
    vector = 0
    for position in range(dimension):
        if rng.bernoulli(probability_of_one):
            vector |= 1 << position
    return vector


def _flow_from_state(entry: StateDict) -> TrainingFlow:
    values = entry["stats"]
    return TrainingFlow(
        index=int(entry["index"]),
        stats=FlowStats(
            octets=int(values[0]),
            packets=int(values[1]),
            duration_ms=int(values[2]),
            bit_rate=float(values[3]),
            packet_rate=float(values[4]),
        ),
        encoded=int(entry["encoded"]),
    )


@stateful("nns")
class NNSStructure:
    """The full KOR search structure over one training cluster."""

    def __init__(
        self,
        encoder: UnaryEncoder,
        config: NNSConfig,
        flows: Sequence[TrainingFlow],
        *,
        rng: SeededRng,
    ) -> None:
        if not flows:
            raise TrainingError("cannot build an NNS structure with no flows")
        self.encoder = encoder
        self.config = config
        self.flows = list(flows)
        self._rng = rng
        self._pick_rng = rng.fork("structure-pick")
        self._deltas = _ball_deltas(config.m2, config.m3)
        self._scales: Dict[int, List[_TraceTable]] = {}
        self.scales_built = 0
        #: Draws on the pick RNG since this structure was built or
        #: loaded: the one part of a trained model a search changes
        #: (only at ``M1`` > 1), so what says its checkpoint is stale.
        self.pick_draws = 0
        # A derived cache over `flows`: each flow's interval indices for
        # filing it into trace tables.  Built lazily, never checkpointed,
        # dropped (with the tables) whenever `flows` is replaced
        # (load_state).
        self._flow_lanes: Optional[List[Tuple[int, ...]]] = None

    @property
    def dimension(self) -> int:
        return self.encoder.dimension

    def _tables_for(self, scale: int) -> List[_TraceTable]:
        tables = self._scales.get(scale)
        if tables is None:
            if self._flow_lanes is None:
                decode = self.encoder.decode_indices
                self._flow_lanes = [decode(flow.encoded) for flow in self.flows]
            b = 1.0 / (2.0 * scale)
            scale_rng = self._rng.fork(f"scale-{scale}")
            tables = [
                _TraceTable(
                    self.flows,
                    self._flow_lanes,
                    self.encoder.lane_layout,
                    self.dimension,
                    self.config.m2,
                    self._deltas,
                    b,
                    scale_rng.fork(f"table-{j}"),
                )
                for j in range(self.config.m1)
            ]
            self._scales[scale] = tables
            self.scales_built += 1
        return tables

    def build_all_scales(self) -> None:
        """Eagerly build every scale (exhaustive-test / offline mode)."""
        for scale in range(1, self.dimension + 1):
            self._tables_for(scale)

    def nearest(self, encoded: int) -> Optional[SearchResult]:
        """Figure 8: binary search over distance scales.

        Returns the flow from the last non-empty entry visited, or None
        when every probed scale came up empty (possible only for queries
        far from all training data at every scale).  ``encoded`` must be
        a unary code of this structure's encoder.
        """
        lanes = self.encoder.decode_indices(encoded)
        low, high = 1, self.dimension
        last: Optional[Tuple[_TraceTable, int, int]] = None
        while low <= high:
            scale = (low + high) // 2
            tables = self._tables_for(scale)
            if len(tables) == 1:
                table = tables[0]
            else:
                table = self._pick_rng.choice(tables)
                self.pick_draws += 1
            trace = table.trace(lanes)
            # The search only branches on whether the M3-ball of the
            # trace holds any flow: one bit of the occupancy bitmap.
            if table.occupied[trace >> 3] >> (trace & 7) & 1:
                last = (table, trace, scale)
                high = scale - 1
            else:
                low = scale + 1
        if last is None:
            return None
        table, trace, scale = last
        # Deterministic pick inside the ball: the closest by true
        # Hamming distance, ties to the earliest training index.
        buckets = table.table
        best: Optional[TrainingFlow] = None
        best_distance = 0
        for delta in self._deltas:
            bucket = buckets.get(trace ^ delta)
            if bucket is None:
                continue
            for flow in bucket:
                distance = (flow.encoded ^ encoded).bit_count()
                if (
                    best is None
                    or distance < best_distance
                    or (distance == best_distance and flow.index < best.index)
                ):
                    best, best_distance = flow, distance
        assert best is not None  # the bitmap bit promised a stored trace
        return SearchResult(flow=best, distance=best_distance, scale=scale)

    # -- the stage-state protocol --------------------------------------------

    def state_dict(self) -> StateDict:
        """Training flows plus both RNG cursors.

        The trace tables are *not* stored: scales are a pure function of
        ``self._rng``'s seed (``fork`` derives children from seed and name
        alone, never the cursor), so a restored structure rebuilds the
        same tables lazily on first probe.  Only ``_pick_rng``'s cursor is
        consumed per search (at ``M1`` > 1, counted by ``pick_draws``),
        and it is captured exactly.
        """
        return {
            "rng": self._rng.state_dict(),
            "pick_rng": self._pick_rng.state_dict(),
            "flows": [
                {
                    "index": flow.index,
                    "stats": list(flow.stats.as_tuple()),
                    "encoded": flow.encoded,
                }
                for flow in self.flows
            ],
        }

    def load_state(self, state: StateDict) -> None:
        flows = [_flow_from_state(entry) for entry in state["flows"]]
        if not flows:
            raise TrainingError("cannot restore an NNS structure with no flows")
        for flow in flows:
            # Table placement reads a code lane by lane as a unary
            # prefix; any other bit pattern would be filed silently
            # under a trace no query can reach.
            if not self.encoder.is_valid_unary(flow.encoded):
                raise StateError(
                    f"training flow {flow.index}: `encoded` is not a unary"
                    f" code of dimension {self.dimension}"
                )
        self.flows = flows
        self._rng.load_state(state["rng"])
        self._pick_rng.load_state(state["pick_rng"])
        self.pick_draws = 0
        self._scales = {}
        self.scales_built = 0
        self._flow_lanes = None

    @classmethod
    def from_state(
        cls, encoder: UnaryEncoder, config: NNSConfig, state: StateDict
    ) -> "NNSStructure":
        """Rebuild a structure from a captured state section.

        The placeholder RNG is immediately overwritten by ``load_state``,
        which restores the saved seed, name, and cursor of both streams.
        """
        flows = [_flow_from_state(entry) for entry in state["flows"]]
        structure = cls(encoder, config, flows, rng=SeededRng(0, "restoring"))
        structure.load_state(state)
        return structure

    def nearest_exact(self, encoded: int) -> SearchResult:
        """Brute-force exact nearest neighbour (tests and bench A4).

        The closest training flow by Hamming distance, ties to the
        earliest training index.
        """
        flow = min(
            self.flows, key=lambda f: ((f.encoded ^ encoded).bit_count(), f.index)
        )
        return SearchResult(
            flow=flow, distance=hamming(flow.encoded, encoded), scale=0
        )
