"""Bit-packed Hamming distances (popcount over packed unary codes).

Exact Hamming-distance sweeps over d=720-bit unary codes (the [KOR] NNS
structures' calibration and ``nearest_exact``, Section 4.2) reduce to
integer bit algebra: :class:`PackedCodes` lays a corpus of fixed-width
codes side by side in one ``bytes`` buffer; a distance sweep is then one
XOR + one ``int.bit_count()`` popcount per code, with no per-code object
or attribute traffic.  :func:`hamming_per_bit` is the deliberately naive
bit-at-a-time reference the property tests compare against.

Everything here is *derived* data: rebuildable from the authoritative
structures and never checkpointed.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.util.errors import ConfigError

__all__ = ["hamming_per_bit", "PackedCodes"]


def hamming_per_bit(a: int, b: int, dimension: int) -> int:
    """Hamming distance computed one bit position at a time.

    The reference implementation of the distance the NNS stage uses:
    equivalent to ``(a ^ b).bit_count()`` but walking positions
    explicitly, exactly as a naive per-bit loop over the unary vectors
    would.  Exists so the fastpath popcount can be property-tested
    against an independent formulation.
    """
    if a < 0 or b < 0:
        raise ConfigError("unary codes are non-negative bitmasks")
    distance = 0
    for position in range(dimension):
        if ((a >> position) & 1) != ((b >> position) & 1):
            distance += 1
    return distance


class PackedCodes:
    """A corpus of fixed-width bit codes packed into one ``bytes`` buffer.

    Code ``i`` occupies bytes ``[i * width, (i + 1) * width)`` in
    little-endian order, so a probe reconstructs it with one
    ``int.from_bytes`` slice — no per-code Python objects survive
    construction.  Distances are popcounts of XORs, identical to
    :func:`repro.core.encoding.hamming` on the unpacked ints.
    """

    __slots__ = ("dimension", "width", "_buffer", "_count")

    def __init__(self, codes: Sequence[int], dimension: int) -> None:
        if dimension < 1:
            raise ConfigError(f"dimension must be >= 1, got {dimension}")
        self.dimension = dimension
        self.width = (dimension + 7) // 8
        parts: List[bytes] = []
        for code in codes:
            if code < 0 or code >> dimension:
                raise ConfigError(
                    f"code does not fit in {dimension} bits: {code:#x}"
                )
            parts.append(code.to_bytes(self.width, "little"))
        self._buffer = b"".join(parts)
        self._count = len(parts)

    def __len__(self) -> int:
        return self._count

    def code_at(self, index: int) -> int:
        """Unpack code ``index`` back into an int bitmask."""
        if not 0 <= index < self._count:
            raise ConfigError(f"code index {index} out of range")
        start = index * self.width
        return int.from_bytes(self._buffer[start : start + self.width], "little")

    def distances(self, query: int) -> List[int]:
        """Hamming distance from ``query`` to every packed code, in order."""
        width = self.width
        buffer = self._buffer
        return [
            (int.from_bytes(buffer[start : start + width], "little") ^ query).bit_count()
            for start in range(0, len(buffer), width)
        ]

    def argmin(self, query: int) -> Tuple[int, int]:
        """(index, distance) of the closest code; ties go to the lowest index."""
        if not self._count:
            raise ConfigError("argmin over an empty code corpus")
        best_index = 0
        best_distance = self.dimension + 1
        width = self.width
        buffer = self._buffer
        for index in range(self._count):
            start = index * width
            distance = (
                int.from_bytes(buffer[start : start + width], "little") ^ query
            ).bit_count()
            if distance < best_distance:
                best_index, best_distance = index, distance
        return best_index, best_distance
