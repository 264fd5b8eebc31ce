"""Columnar zero-copy NetFlow datagram decoding.

The record-at-a-time decoders in :mod:`repro.netflow.v5` and
:mod:`repro.netflow.v1` pay per-record Python overhead: one
``unpack_from`` call, one try/except, and one tuple unpacking per
48-byte record.  The columnar decoders here unpack the whole record
region in a single :meth:`struct.Struct.iter_unpack` sweep over a
``memoryview`` (no payload copy), transpose once with ``zip`` (C speed),
and validate *columns* — ``min()`` over the packets/octets columns and
one generator sweep over first/last — instead of validating each record
as it is built.

Equivalence contract (property-tested in ``tests/test_fastpath.py``):
for every byte string, ``decode_v5_columnar``/``decode_v1_columnar``
either returns exactly the records the record-at-a-time decoder
returns, or raises :class:`~repro.util.errors.NetFlowDecodeError` with
the *identical* message.  When a column check trips, the datagram is
handed to the record-at-a-time decoder itself, which reports the first
offending record's first bad field (packets, then octets, then
timestamps); valid datagrams never take that branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union, cast

from repro.netflow.records import FlowKey, FlowRecord
from repro.netflow.v1 import (
    MAX_V1_RECORDS,
    NETFLOW_V1_VERSION,
    V1_HEADER_LEN,
    V1_HEADER_STRUCT,
    V1_RECORD_LEN,
    V1_RECORD_STRUCT,
    decode_v1_datagram,
)
from repro.netflow.v5 import (
    HEADER_LEN,
    HEADER_STRUCT,
    MAX_RECORDS_PER_DATAGRAM,
    NETFLOW_V5_VERSION,
    RECORD_LEN,
    RECORD_STRUCT,
    V5Header,
    decode_datagram,
)
from repro.util.errors import NetFlowDecodeError

__all__ = [
    "ColumnarBatch",
    "RecordColumns",
    "RecordRow",
    "RowColumns",
    "RowBatch",
    "decode_v5_columnar",
    "decode_v1_columnar",
]

_IntColumn = Tuple[int, ...]


@dataclass(frozen=True)
class ColumnarBatch:
    """One decoded datagram's records, stored column-wise.

    Every :class:`~repro.netflow.records.FlowRecord` field is a parallel
    tuple; record ``i`` is the ``i``-th element of each column.  v1
    datagrams zero-fill the v5-only columns (AS numbers and masks), the
    same normalisation the record-at-a-time v1 decoder applies.
    """

    src_addr: _IntColumn
    dst_addr: _IntColumn
    protocol: _IntColumn
    src_port: _IntColumn
    dst_port: _IntColumn
    tos: _IntColumn
    input_if: _IntColumn
    packets: _IntColumn
    octets: _IntColumn
    first: _IntColumn
    last: _IntColumn
    next_hop: _IntColumn
    tcp_flags: _IntColumn
    src_as: _IntColumn
    dst_as: _IntColumn
    src_mask: _IntColumn
    dst_mask: _IntColumn
    output_if: _IntColumn
    ttl: _IntColumn

    def __len__(self) -> int:
        return len(self.src_addr)

    def records(self) -> List[FlowRecord]:
        """Materialise row-wise :class:`FlowRecord` objects.

        The batch is validated at decode time, so construction here
        cannot raise; the output is element-for-element identical to the
        record-at-a-time decoder's list.
        """
        return [self.record_at(index) for index in range(len(self.src_addr))]

    def record_at(self, index: int) -> FlowRecord:
        """Materialise row ``index`` alone.

        The Figure 12 chain reads a row through its columns and calls
        this only where a :class:`FlowRecord` is consumed — an alert, an
        NNS raw-key memo miss, an owner-table miss, an auxiliary
        detector's vote — so on the serve path the calls per batch track
        the batch's alerts, not its rows.
        """
        return FlowRecord(
            key=FlowKey(
                src_addr=self.src_addr[index],
                dst_addr=self.dst_addr[index],
                protocol=self.protocol[index],
                src_port=self.src_port[index],
                dst_port=self.dst_port[index],
                tos=self.tos[index],
                input_if=self.input_if[index],
            ),
            packets=self.packets[index],
            octets=self.octets[index],
            first=self.first[index],
            last=self.last[index],
            next_hop=self.next_hop[index],
            tcp_flags=self.tcp_flags[index],
            src_as=self.src_as[index],
            dst_as=self.dst_as[index],
            src_mask=self.src_mask[index],
            dst_mask=self.dst_mask[index],
            output_if=self.output_if[index],
            ttl=self.ttl[index],
        )


#: The columns the Figure 12 chain reads: the two every row is probed
#: through, then the seven only a suspect row is read through.
_CHAIN_COLUMNS = (
    "src_addr", "input_if",
    "dst_addr", "dst_port", "protocol", "packets", "octets", "first", "last",
)


class RecordColumns:
    """Already-built records behind the columns the chain reads.

    The adapter that lets a ``Sequence[FlowRecord]`` (the offline driver,
    the oracle tests) ride the same loop as a decoded datagram.  The two
    probe columns are gathered up front; the seven suspect columns are
    gathered together the first time one of them is read, so a batch with
    no suspect row never pays for them.  ``record_at`` hands back the
    original object.
    """

    __slots__ = (*_CHAIN_COLUMNS, "_records")

    def __init__(self, records: Sequence[FlowRecord]) -> None:
        self.src_addr = [record.key.src_addr for record in records]
        self.input_if = [record.key.input_if for record in records]
        self._records = records

    def __getattr__(self, name: str) -> List[int]:
        # Reached only while the slot is empty: the first suspect row.
        if name in _CHAIN_COLUMNS:
            records = self._records
            keys = [record.key for record in records]
            self.dst_addr = [key.dst_addr for key in keys]
            self.dst_port = [key.dst_port for key in keys]
            self.protocol = [key.protocol for key in keys]
            self.packets = [record.packets for record in records]
            self.octets = [record.octets for record in records]
            self.first = [record.first for record in records]
            self.last = [record.last for record in records]
        return cast(List[int], object.__getattribute__(self, name))

    def __len__(self) -> int:
        return len(self._records)

    def record_at(self, index: int) -> FlowRecord:
        return self._records[index]


class RecordRow:
    """One already-built record as a one-row block.

    What ``process(record)`` and ``IngestQueue.put(record)`` hand the
    chain: building it gathers nothing, a legal row is read through
    ``record_at`` alone, and the first column read fills all nine.
    """

    __slots__ = (*_CHAIN_COLUMNS, "_record")

    def __init__(self, record: FlowRecord) -> None:
        self._record = record

    def __getattr__(self, name: str) -> Tuple[int]:
        if name in _CHAIN_COLUMNS:
            record = self._record
            key = record.key
            self.src_addr = (key.src_addr,)
            self.input_if = (key.input_if,)
            self.dst_addr = (key.dst_addr,)
            self.dst_port = (key.dst_port,)
            self.protocol = (key.protocol,)
            self.packets = (record.packets,)
            self.octets = (record.octets,)
            self.first = (record.first,)
            self.last = (record.last,)
        return cast(Tuple[int], object.__getattribute__(self, name))

    def __len__(self) -> int:
        return 1

    def record_at(self, index: int) -> FlowRecord:
        return self._record


#: One block of rows the commit loop can read: the chain's nine columns
#: plus ``record_at``.
RowColumns = Union[ColumnarBatch, RecordColumns, RecordRow]


class RowBatch:
    """Flow rows in arrival order: ``(columns, start, stop)`` slices.

    The unit the serve path moves — what the ingest queue hands the
    commit worker and what :meth:`~repro.core.pipeline.EnhancedInFilter.
    process_batch` loops over.  A slice is a run of rows of one decoded
    datagram (a datagram split across two commit batches contributes a
    slice to each); ``len()`` counts rows, so an empty batch is falsy.
    """

    __slots__ = ("slices", "_rows")

    def __init__(self) -> None:
        self.slices: List[Tuple[RowColumns, int, int]] = []
        self._rows = 0

    @classmethod
    def of(cls, columns: RowColumns) -> "RowBatch":
        """Every row of one column block."""
        batch = cls()
        batch.append(columns, 0, len(columns))
        return batch

    def append(self, columns: RowColumns, start: int, stop: int) -> None:
        self.slices.append((columns, start, stop))
        self._rows += stop - start

    def __len__(self) -> int:
        return self._rows

    def records(self) -> List[FlowRecord]:
        """Every row materialised, in order (tests and diagnostics; the
        commit loop materialises by index instead)."""
        return [
            columns.record_at(index)
            for columns, start, stop in self.slices
            for index in range(start, stop)
        ]


def _columns_valid(
    packets: _IntColumn, octets: _IntColumn, first: _IntColumn, last: _IntColumn
) -> bool:
    """Batch semantic validation: C-speed sweeps instead of per-record checks."""
    return (
        min(packets) > 0
        and min(octets) > 0
        and all(l >= f for f, l in zip(first, last))
    )


def decode_v5_columnar(data: bytes) -> Tuple[V5Header, ColumnarBatch]:
    """Decode one v5 export datagram column-wise (zero payload copy).

    Framing and semantic validation match
    :func:`repro.netflow.v5.decode_datagram` exactly, including error
    messages.
    """
    if len(data) < HEADER_LEN:
        raise NetFlowDecodeError(
            f"datagram too short for a v5 header: {len(data)} bytes"
        )
    (
        version,
        count,
        sys_uptime,
        unix_secs,
        unix_nsecs,
        flow_sequence,
        engine_type,
        engine_id,
        sampling_interval,
    ) = HEADER_STRUCT.unpack_from(data, 0)
    if version != NETFLOW_V5_VERSION:
        raise NetFlowDecodeError(f"unsupported NetFlow version {version}")
    if count == 0 or count > MAX_RECORDS_PER_DATAGRAM:
        raise NetFlowDecodeError(f"record count {count} out of range")
    expected = HEADER_LEN + count * RECORD_LEN
    if len(data) != expected:
        raise NetFlowDecodeError(
            f"datagram length mismatch: header claims {count} records"
            f" ({expected} bytes) but payload is {len(data)} bytes"
        )
    header = V5Header(
        version=version,
        count=count,
        sys_uptime=sys_uptime,
        unix_secs=unix_secs,
        unix_nsecs=unix_nsecs,
        flow_sequence=flow_sequence,
        engine_type=engine_type,
        engine_id=engine_id,
        sampling_interval=sampling_interval,
    )
    rows = list(RECORD_STRUCT.iter_unpack(memoryview(data)[HEADER_LEN:expected]))
    columns = cast(Tuple[_IntColumn, ...], tuple(zip(*rows)))
    # Wire layout (ttl in the pad1 slot at 11, pad at 19):
    # src dst nexthop input output packets octets first last sport dport
    # ttl flags proto tos src_as dst_as src_mask dst_mask pad2
    if not _columns_valid(columns[5], columns[6], columns[7], columns[8]):
        # The reference decoder names the first bad record's first bad
        # field; it raises before reaching the fallback below.
        decode_datagram(data)
        raise NetFlowDecodeError(
            "invalid flow record in datagram: column validation failed"
        )
    batch = ColumnarBatch(
        src_addr=columns[0],
        dst_addr=columns[1],
        protocol=columns[13],
        src_port=columns[9],
        dst_port=columns[10],
        tos=columns[14],
        input_if=columns[3],
        packets=columns[5],
        octets=columns[6],
        first=columns[7],
        last=columns[8],
        next_hop=columns[2],
        tcp_flags=columns[12],
        src_as=columns[15],
        dst_as=columns[16],
        src_mask=columns[17],
        dst_mask=columns[18],
        output_if=columns[4],
        ttl=columns[11],
    )
    return header, batch


def decode_v1_columnar(data: bytes) -> Tuple[int, ColumnarBatch]:
    """Decode one v1 export datagram column-wise; returns (sys_uptime, batch).

    Framing and semantic validation match
    :func:`repro.netflow.v1.decode_v1_datagram` exactly, including error
    messages.
    """
    if len(data) < V1_HEADER_LEN:
        raise NetFlowDecodeError(
            f"datagram too short for a v1 header: {len(data)} bytes"
        )
    version, count, sys_uptime, _secs, _nsecs = V1_HEADER_STRUCT.unpack_from(data, 0)
    if version != NETFLOW_V1_VERSION:
        raise NetFlowDecodeError(f"unsupported NetFlow version {version}")
    if count == 0 or count > MAX_V1_RECORDS:
        raise NetFlowDecodeError(f"record count {count} out of range")
    expected = V1_HEADER_LEN + count * V1_RECORD_LEN
    if len(data) != expected:
        raise NetFlowDecodeError(
            f"datagram length mismatch: header claims {count} records"
            f" ({expected} bytes) but payload is {len(data)} bytes"
        )
    rows = list(V1_RECORD_STRUCT.iter_unpack(memoryview(data)[V1_HEADER_LEN:expected]))
    columns = cast(Tuple[_IntColumn, ...], tuple(zip(*rows)))
    # Wire layout (pad at 11, reserved tail skipped by the format string):
    # src dst nexthop input output packets octets first last sport dport
    # pad proto tos flags
    if not _columns_valid(columns[5], columns[6], columns[7], columns[8]):
        decode_v1_datagram(data)
        raise NetFlowDecodeError(
            "invalid flow record in v1 datagram: column validation failed"
        )
    zeros = (0,) * count
    batch = ColumnarBatch(
        src_addr=columns[0],
        dst_addr=columns[1],
        protocol=columns[12],
        src_port=columns[9],
        dst_port=columns[10],
        tos=columns[13],
        input_if=columns[3],
        packets=columns[5],
        octets=columns[6],
        first=columns[7],
        last=columns[8],
        next_hop=columns[2],
        tcp_flags=columns[14],
        src_as=zeros,
        dst_as=zeros,
        src_mask=zeros,
        dst_mask=zeros,
        output_if=columns[4],
        ttl=zeros,
    )
    return sys_uptime, batch
