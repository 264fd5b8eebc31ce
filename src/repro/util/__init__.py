"""Shared utilities: IPv4 arithmetic, deterministic RNG, simulated time."""

from __future__ import annotations

from repro.util.errors import (
    AddressError,
    ConfigError,
    ExperimentError,
    NetFlowDecodeError,
    NetFlowError,
    NoRouteError,
    RecordError,
    ReproError,
    RoutingError,
    TrainingError,
)
from repro.util.ip import MAX_IPV4, Prefix, PrefixTrie, format_ipv4, parse_ipv4
from repro.util.rng import SeededRng, derive_seed
from repro.util.timebase import DAY, HOUR, MINUTE, SimClock, periodic

__all__ = [
    "AddressError",
    "ConfigError",
    "ExperimentError",
    "NetFlowDecodeError",
    "NetFlowError",
    "NoRouteError",
    "RecordError",
    "ReproError",
    "RoutingError",
    "TrainingError",
    "MAX_IPV4",
    "Prefix",
    "PrefixTrie",
    "format_ipv4",
    "parse_ipv4",
    "SeededRng",
    "derive_seed",
    "DAY",
    "HOUR",
    "MINUTE",
    "SimClock",
    "periodic",
]
