"""Vectorized zero-copy data plane for the batch hot path.

E11/E19 showed the per-flow cost of the reproduction is dominated by
pure-Python EIA lookups and d=720 unary Hamming distances.  This
package is the batch-plane half of the answer (bench E15, tuning guide
``docs/performance.md``): columnar zero-copy NetFlow decoding and the
row batches the serve path moves (:mod:`repro.fastpath.columnar`), and
the bounded write-through block -> owner table
(:mod:`repro.fastpath.plane`) every EIA check answers from.  The
Hamming half lives in :mod:`repro.core.nns` and
:mod:`repro.core.clusters`, which XOR and popcount int codes directly.

Layering: imports :mod:`repro.util`, :mod:`repro.obs`, and
:mod:`repro.netflow` only — never :mod:`repro.core`; the detector
pipeline consumes this package, not the other way around.  Everything
here is derived/cache data and is excluded from stage-state
checkpoints by construction.
"""

from __future__ import annotations

from repro.fastpath.columnar import (
    ColumnarBatch,
    RecordColumns,
    RecordRow,
    RowBatch,
    RowColumns,
    decode_v1_columnar,
    decode_v5_columnar,
)
from repro.fastpath.plane import DEFAULT_MEMO_CAPACITY, MISSING, FastPath

__all__ = [
    "ColumnarBatch",
    "RecordColumns",
    "RecordRow",
    "RowBatch",
    "RowColumns",
    "decode_v1_columnar",
    "decode_v5_columnar",
    "DEFAULT_MEMO_CAPACITY",
    "MISSING",
    "FastPath",
]
