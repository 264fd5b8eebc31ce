"""Vectorized zero-copy data plane for the batch hot path.

E11/E19 showed the per-flow cost of the reproduction is dominated by
pure-Python EIA lookups and d=720 unary Hamming distances.  This
package is the documented, benchmarked answer (bench E15, tuning guide
``docs/performance.md``): columnar zero-copy NetFlow decoding
(:mod:`repro.fastpath.columnar`), bit-packed popcount structures for
NNS codes and EIA membership (:mod:`repro.fastpath.bitpack`), and an
epoch-invalidated bounded verdict memo (:mod:`repro.fastpath.lru`,
:mod:`repro.fastpath.plane`) that every detector carries.

Layering: imports :mod:`repro.util`, :mod:`repro.obs`, and
:mod:`repro.netflow` only — never :mod:`repro.core`; the detector
pipeline consumes this package, not the other way around.  Everything
here is derived/cache data and is excluded from stage-state
checkpoints by construction.
"""

from __future__ import annotations

from repro.fastpath.bitpack import (
    BlockBitset,
    BlockOwnerIndex,
    PackedCodes,
    hamming_per_bit,
)
from repro.fastpath.columnar import (
    ColumnarBatch,
    decode_v1_columnar,
    decode_v5_columnar,
)
from repro.fastpath.lru import VerdictLRU
from repro.fastpath.plane import DEFAULT_MEMO_CAPACITY, FastPath

__all__ = [
    "BlockBitset",
    "BlockOwnerIndex",
    "PackedCodes",
    "hamming_per_bit",
    "ColumnarBatch",
    "decode_v1_columnar",
    "decode_v5_columnar",
    "VerdictLRU",
    "DEFAULT_MEMO_CAPACITY",
    "FastPath",
]
