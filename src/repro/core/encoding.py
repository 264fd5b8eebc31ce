"""Unary flow encoding (Section 4.2).

The NNS algorithms require each flow to be one point in Hamming space: a
characteristic with value in ``[a, b]`` gets ``d_C`` bits, the value's
interval index ``I`` encoded as ``I`` ones followed by ``d_C - I`` zeros,
and the per-feature strings concatenate into a single d-bit vector.  The
Hamming distance between two unary encodings is then the L1 distance
between interval indices — the metric the nearest-neighbour search
operates in.

Encodings are Python ints used as bitmasks: bit ``k`` of the integer is
position ``k`` of the vector, so inner products and Hamming distances are
single ``&``/``^`` + ``bit_count`` operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.config import FeatureSpec
from repro.netflow.records import FlowStats
from repro.util.errors import ConfigError

__all__ = ["UnaryEncoder", "hamming", "parity_inner_product"]


def hamming(a: int, b: int) -> int:
    """Hamming distance between two encoded vectors."""
    return (a ^ b).bit_count()


def parity_inner_product(u: int, v: int) -> int:
    """The GF(2) inner product used by the KOR ``Test`` procedure."""
    return (u & v).bit_count() & 1


@dataclass(frozen=True)
class _Lane:
    spec: FeatureSpec
    offset: int


class UnaryEncoder:
    """Encodes :class:`FlowStats` into d-bit unary vectors.

    The feature tuple fixes both the order of concatenation and the
    per-feature bit budget; with the paper defaults the total dimension is
    720.  Values outside a feature's range clamp to its ends, so an
    off-the-chart flow lands in the extreme interval rather than raising.
    """

    def __init__(self, features: Sequence[FeatureSpec]) -> None:
        if not features:
            raise ConfigError("at least one feature is required")
        expected = list(FlowStats.FEATURE_NAMES)
        got = [spec.name for spec in features]
        if got != expected:
            raise ConfigError(
                f"feature order must match FlowStats.FEATURE_NAMES"
                f" {expected}, got {got}"
            )
        lanes: List[_Lane] = []
        offset = 0
        for spec in features:
            lanes.append(_Lane(spec=spec, offset=offset))
            offset += spec.bits
        self._lanes: Tuple[_Lane, ...] = tuple(lanes)
        #: ``(offset, bits)`` of each feature's lane, in encoding order.
        self.lane_layout: Tuple[Tuple[int, int], ...] = tuple(
            (lane.offset, lane.spec.bits) for lane in lanes
        )
        self.dimension = offset

    def interval_index(self, spec: FeatureSpec, value: float) -> int:
        """The unary interval ``I`` in [0, bits] a value falls into.

        Following the paper's worked example (value 3 of [0, 5] over 5
        bits encodes as ``11100``), intervals are half-open on the left:
        a value on an interval boundary belongs to the interval it
        closes, so ``I = ceil((value - low) * bits / (high - low))``.
        The minimum encodes as all zeros, the maximum as all ones.
        """
        if value <= spec.low:
            return 0
        if value >= spec.high:
            return spec.bits
        scaled = (value - spec.low) * spec.bits / (spec.high - spec.low)
        index = math.ceil(scaled - 1e-9)
        return min(max(index, 1), spec.bits)

    def encode(self, stats: FlowStats) -> int:
        """Encode a statistic vector as a d-bit integer bitmask."""
        values = stats.as_tuple()
        encoded = 0
        for lane, value in zip(self._lanes, values):
            index = self.interval_index(lane.spec, value)
            if index:
                # `index` ones in the low positions of this lane.
                encoded |= ((1 << index) - 1) << lane.offset
        return encoded

    def decode_indices(self, encoded: int) -> Tuple[int, ...]:
        """Recover per-feature interval indices (for tests/diagnostics)."""
        indices = []
        for lane in self._lanes:
            lane_bits = (encoded >> lane.offset) & ((1 << lane.spec.bits) - 1)
            indices.append(lane_bits.bit_count())
        return tuple(indices)

    def is_valid_unary(self, encoded: int) -> bool:
        """True when every lane is a proper prefix-of-ones pattern."""
        if encoded < 0 or encoded >> self.dimension:
            return False
        for lane in self._lanes:
            lane_bits = (encoded >> lane.offset) & ((1 << lane.spec.bits) - 1)
            ones = lane_bits.bit_count()
            if lane_bits != (1 << ones) - 1:
                return False
        return True

    def max_distance(self) -> int:
        """The largest possible Hamming distance between two encodings."""
        return self.dimension
