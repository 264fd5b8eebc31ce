"""NetFlow v5 substrate: records, wire format, exporter, collector, reports."""

from __future__ import annotations

from repro.netflow.collector import CollectorStats, FlowCollector
from repro.netflow.emit import (
    ChannelTarget,
    DatagramEmitter,
    EmitTarget,
    SocketTarget,
)
from repro.netflow.exporter import ExporterConfig, FlowExporter, Packet
from repro.netflow.anonymize import PrefixPreservingAnonymizer
from repro.netflow.filters import FlowFilter, parse_filter_expression
from repro.netflow.sampling import sample_records, survival_probability
from repro.netflow.transport import ChannelConfig, ChannelStats, UdpChannel
from repro.netflow.files import (
    FLOW_FILE_MAGIC,
    export_ascii,
    import_ascii,
    read_flow_file,
    write_flow_file,
)
from repro.netflow.records import (
    PORT_DNS,
    PORT_FTP,
    PORT_HTTP,
    PORT_SMTP,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    TCP_ACK,
    TCP_FIN,
    TCP_PSH,
    TCP_RST,
    TCP_SYN,
    FlowKey,
    FlowRecord,
    FlowStats,
)
from repro.netflow.reports import (
    FLOW_GRANULARITY,
    GROUP_FIELDS,
    FlowReport,
    GroupStats,
    build_report,
)
from repro.netflow.v1 import (
    MAX_V1_RECORDS,
    NETFLOW_V1_VERSION,
    decode_v1_datagram,
    encode_v1_datagram,
    upgrade_records,
)
from repro.netflow.v5 import (
    HEADER_LEN,
    MAX_RECORDS_PER_DATAGRAM,
    NETFLOW_V5_VERSION,
    RECORD_LEN,
    V5Header,
    datagrams_for,
    decode_datagram,
    encode_datagram,
)

__all__ = [
    "CollectorStats",
    "ChannelTarget",
    "DatagramEmitter",
    "EmitTarget",
    "SocketTarget",
    "PrefixPreservingAnonymizer",
    "FlowFilter",
    "parse_filter_expression",
    "sample_records",
    "survival_probability",
    "ChannelConfig",
    "ChannelStats",
    "UdpChannel",
    "FLOW_FILE_MAGIC",
    "export_ascii",
    "import_ascii",
    "read_flow_file",
    "write_flow_file",
    "FlowCollector",
    "ExporterConfig",
    "FlowExporter",
    "Packet",
    "PORT_DNS",
    "PORT_FTP",
    "PORT_HTTP",
    "PORT_SMTP",
    "PROTO_ICMP",
    "PROTO_TCP",
    "PROTO_UDP",
    "TCP_ACK",
    "TCP_FIN",
    "TCP_PSH",
    "TCP_RST",
    "TCP_SYN",
    "FlowKey",
    "FlowRecord",
    "FlowStats",
    "FLOW_GRANULARITY",
    "GROUP_FIELDS",
    "FlowReport",
    "GroupStats",
    "build_report",
    "MAX_V1_RECORDS",
    "NETFLOW_V1_VERSION",
    "decode_v1_datagram",
    "encode_v1_datagram",
    "upgrade_records",
    "HEADER_LEN",
    "MAX_RECORDS_PER_DATAGRAM",
    "NETFLOW_V5_VERSION",
    "RECORD_LEN",
    "V5Header",
    "datagrams_for",
    "decode_datagram",
    "encode_datagram",
]
