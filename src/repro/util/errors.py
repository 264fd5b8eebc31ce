"""Exception hierarchy shared by every repro subsystem.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch a single base class at API boundaries while still discriminating on the
specific failure when they need to.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "AddressError",
    "NetFlowError",
    "NetFlowDecodeError",
    "RecordError",
    "RoutingError",
    "NoRouteError",
    "ConfigError",
    "TrainingError",
    "ExperimentError",
    "StateError",
    "ServeError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class AddressError(ReproError, ValueError):
    """An IPv4 address, prefix, or sub-block specification is invalid."""


class NetFlowError(ReproError):
    """Base class for NetFlow encoding/decoding/collection failures."""


class NetFlowDecodeError(NetFlowError, ValueError):
    """A byte buffer could not be parsed as a NetFlow v5 datagram."""


class RecordError(NetFlowError, ValueError):
    """A flow record or packet field value is out of its valid range."""


class RoutingError(ReproError):
    """Base class for topology / BGP / traceroute simulation failures."""


class NoRouteError(RoutingError, LookupError):
    """No route exists between the requested endpoints."""


class ConfigError(ReproError, ValueError):
    """A detector or experiment configuration value is out of range."""


class TrainingError(ReproError, RuntimeError):
    """The detector was asked to operate before training completed."""


class ExperimentError(ReproError, RuntimeError):
    """An experiment harness was driven with inconsistent parameters."""


class StateError(ReproError, RuntimeError):
    """A detector checkpoint could not be written, read, or parsed."""


class ServeError(ReproError, RuntimeError):
    """The live serving daemon violated or detected a usage contract."""
