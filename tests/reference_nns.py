"""The literal Figures 6-8 search, kept as the test oracle.

``NNSStructure.nearest`` picks its neighbour once and forms traces from
per-lane prefix columns, so comparing it with itself checks nothing.
This module is the search as the paper draws it and as the structure ran
it before that rewrite: every trace bit is the GF(2) inner product of
the whole code with one random test vector (``parity_inner_product``),
every probe walks the full radius-``M3`` ball and collects all the flows
in it, and the closest of them is picked at *every* non-empty scale of
the binary search, the last pick being the answer.  No lane columns, no
early exit, no memo.

It borrows a structure's training flows, configuration and construction
RNG (``fork`` derives children from seed and name alone, so both sides
draw the same test vectors) and keeps its own pick stream and its own
tables; it never calls into the structure's search.  Build it from a
structure that has not been queried yet and the two pick streams start
at the same cursor.
"""

from itertools import combinations
from typing import Dict, List, Optional, Tuple

from repro.core.encoding import hamming, parity_inner_product
from repro.core.nns import NNSStructure, TrainingFlow
from repro.util.rng import SeededRng

#: (training index, distance, scale) of the neighbour, or None.
Answer = Optional[Tuple[int, int, int]]


def answer_of(structure: NNSStructure, encoded: int) -> Answer:
    """The comparable projection of ``structure.nearest(encoded)``."""
    result = structure.nearest(encoded)
    if result is None:
        return None
    return result.flow.index, result.distance, result.scale


class _ReferenceTable:
    """One T_ij of Figure 6: M2 test vectors and the trace-keyed table."""

    def __init__(
        self,
        flows: List[TrainingFlow],
        dimension: int,
        m2: int,
        probability_of_one: float,
        rng: SeededRng,
    ) -> None:
        self.test_vectors: List[int] = []
        for _ in range(m2):
            vector = 0
            for position in range(dimension):
                if rng.bernoulli(probability_of_one):
                    vector |= 1 << position
            self.test_vectors.append(vector)
        self.table: Dict[int, List[TrainingFlow]] = {}
        for flow in flows:
            self.table.setdefault(self.trace(flow.encoded), []).append(flow)

    def trace(self, encoded: int) -> int:
        trace = 0
        for bit_index, vector in enumerate(self.test_vectors):
            if parity_inner_product(vector, encoded):
                trace |= 1 << bit_index
        return trace

    def probe(self, encoded: int, deltas: List[int]) -> List[TrainingFlow]:
        """Every flow stored within the M3-ball of the query's trace."""
        trace = self.trace(encoded)
        hits: List[TrainingFlow] = []
        for delta in deltas:
            hits.extend(self.table.get(trace ^ delta, ()))
        return hits


class ReferenceNNS:
    """Figure 8 over the flows and seeds of a not-yet-queried structure."""

    def __init__(self, structure: NNSStructure) -> None:
        config = structure.config
        self.flows = list(structure.flows)
        self.dimension = structure.dimension
        self.m1, self.m2 = config.m1, config.m2
        self._rng = structure._rng
        self.pick_rng = self._rng.fork("structure-pick")
        self._deltas: List[int] = [
            sum(1 << position for position in positions)
            for weight in range(config.m3)
            for positions in combinations(range(config.m2), weight)
        ]
        self._scales: Dict[int, List[_ReferenceTable]] = {}

    @property
    def scales_built(self) -> List[int]:
        return sorted(self._scales)

    def _tables_for(self, scale: int) -> List[_ReferenceTable]:
        if scale not in self._scales:
            scale_rng = self._rng.fork(f"scale-{scale}")
            self._scales[scale] = [
                _ReferenceTable(
                    self.flows,
                    self.dimension,
                    self.m2,
                    1.0 / (4.0 * scale),
                    scale_rng.fork(f"table-{j}"),
                )
                for j in range(self.m1)
            ]
        return self._scales[scale]

    def nearest(self, encoded: int) -> Answer:
        low, high = 1, self.dimension
        best: Optional[Tuple[TrainingFlow, int]] = None
        while low <= high:
            scale = (low + high) // 2
            tables = self._tables_for(scale)
            table = tables[0] if len(tables) == 1 else self.pick_rng.choice(tables)
            hits = table.probe(encoded, self._deltas)
            if hits:
                chosen = min(
                    hits, key=lambda f: (hamming(f.encoded, encoded), f.index)
                )
                best = (chosen, scale)
                high = scale - 1
            else:
                low = scale + 1
        if best is None:
            return None
        flow, scale = best
        return flow.index, hamming(flow.encoded, encoded), scale
