"""Versioned, atomic detector checkpoints (the v2 state format).

Section 4.2: "the search data structure may be constructed off-line;
without requiring access to network traffic" — an operational deployment
trains once and restarts many times.  A checkpoint is a JSON document:

* ``format`` — the format version (currently 2);
* ``config`` — the full configuration (every dataclass knob);
* ``cursor`` — how many records of the input stream were committed when
  the checkpoint was taken (``None`` for plain save/load round trips);
* ``components`` — the detector's composed :meth:`state_dict`, one
  namespaced section per stage-state component (see
  :mod:`repro.core.state`).

Three guarantees of the format:

* **lossless** — every component round-trips through its own
  ``state_dict``/``load_state`` pair, so scan suspicion, pending
  absorptions, stats, alert history, and RNG cursors all survive a
  restart; the trained model serializes its *derived* statistics, so
  loading never replays training records;
* **byte-identical** — :func:`render_state` emits canonical JSON
  (sorted keys, compact separators, deterministically ordered derived
  collections), so ``save(load(save(d)))`` equals ``save(d)`` byte for
  byte;
* **atomic** — file writes go through a temp file and ``os.replace``,
  so a crash mid-write leaves the previous checkpoint intact.

Any other ``format`` value — including the retired v1 — is rejected
with :class:`~repro.util.errors.StateError`.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, Optional, TextIO, Tuple, Union

from repro.core.config import (
    EIAConfig,
    FeatureSpec,
    NNSConfig,
    OverloadConfig,
    PipelineConfig,
    ScanConfig,
)
from repro.core.pipeline import EnhancedInFilter
from repro.obs import MetricsRegistry
from repro.util.errors import StateError

__all__ = [
    "STATE_FORMAT_VERSION",
    "CLUSTER_MANIFEST_VERSION",
    "render_state",
    "save_detector",
    "load_checkpoint",
    "load_detector",
    "describe_state",
    "worker_checkpoint_path",
    "cluster_manifest_path",
    "save_cluster_manifest",
    "load_cluster_manifest",
]

STATE_FORMAT_VERSION = 2
CLUSTER_MANIFEST_VERSION = 1


def _config_to_dict(config: PipelineConfig) -> Dict[str, Any]:
    return {
        "eia": asdict(config.eia),
        "scan": asdict(config.scan),
        "nns": {
            "features": [asdict(spec) for spec in config.nns.features],
            "m1": config.nns.m1,
            "m2": config.nns.m2,
            "m3": config.nns.m3,
            "threshold_quantile": config.nns.threshold_quantile,
            "threshold_slack": config.nns.threshold_slack,
            "seed": config.nns.seed,
        },
        "overload": asdict(config.overload),
        "enhanced": config.enhanced,
        "flag_unmodelled_classes": config.flag_unmodelled_classes,
        "detectors": list(config.detectors),
        "ensemble_policy": config.ensemble_policy,
    }


def _config_from_dict(data: Dict[str, Any]) -> PipelineConfig:
    return PipelineConfig(
        eia=EIAConfig(**data["eia"]),
        scan=ScanConfig(**data["scan"]),
        nns=NNSConfig(
            features=tuple(
                FeatureSpec(**spec) for spec in data["nns"]["features"]
            ),
            m1=data["nns"]["m1"],
            m2=data["nns"]["m2"],
            m3=data["nns"]["m3"],
            threshold_quantile=data["nns"]["threshold_quantile"],
            threshold_slack=data["nns"]["threshold_slack"],
            seed=data["nns"]["seed"],
        ),
        overload=OverloadConfig(**data["overload"]),
        enhanced=data["enhanced"],
        flag_unmodelled_classes=data["flag_unmodelled_classes"],
        # Checkpoints from before the ensemble refactor carry neither key
        # and load as the (behaviour-identical) InFilter-only composition.
        detectors=tuple(data.get("detectors", ("infilter",))),
        ensemble_policy=data.get("ensemble_policy", "any"),
    )


def render_state(
    detector: EnhancedInFilter, *, cursor: Optional[int] = None
) -> str:
    """The canonical v2 checkpoint text for a detector.

    Canonical means byte-stable: sorted keys and compact separators here,
    deterministic ordering of derived collections inside each component's
    ``state_dict``.
    """
    document = {
        "format": STATE_FORMAT_VERSION,
        "config": _config_to_dict(detector.config),
        "cursor": cursor,
        "components": detector.state_dict(),
    }
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def _write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` crash-safely (temp file + rename).

    ``os.replace`` is atomic on POSIX and Windows alike, so a reader — or
    a crash — either sees the previous complete checkpoint or the new
    complete checkpoint, never a torn write.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError as error:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise StateError(
            f"could not write checkpoint {path}: {error}"
        ) from error


def save_detector(
    detector: EnhancedInFilter,
    destination: Union[str, Path, TextIO],
    *,
    cursor: Optional[int] = None,
) -> None:
    """Checkpoint detector state as canonical v2 JSON.

    Path destinations are written atomically; stream destinations are the
    caller's to make crash-safe.  ``cursor`` records how many input
    records were committed at checkpoint time, which is what
    ``infilter detect --resume`` skips on restart.
    """
    text = render_state(detector, cursor=cursor)
    if isinstance(destination, (str, Path)):
        _write_atomic(Path(destination), text)
    else:
        destination.write(text)


def _read_document(source: Union[str, Path, TextIO]) -> Dict[str, Any]:
    if isinstance(source, (str, Path)):
        try:
            text = Path(source).read_text()
        except OSError as error:
            raise StateError(
                f"could not read checkpoint {source}: {error}"
            ) from error
    else:
        text = source.read()
    try:
        document = json.loads(text)
    except json.JSONDecodeError as error:
        raise StateError(f"malformed detector state: {error}") from error
    if not isinstance(document, dict):
        raise StateError("detector state must be a JSON object")
    return document


def load_checkpoint(
    source: Union[str, Path, TextIO],
    *,
    registry: Optional[MetricsRegistry] = None,
) -> Tuple[EnhancedInFilter, Optional[int]]:
    """Restore a checkpoint: ``(detector, cursor)``.

    ``cursor`` is the committed-record count saved with the checkpoint
    (``None`` when the checkpoint was a plain save).  ``registry`` is
    the metrics registry the restored detector reports into (the
    process-global one when omitted).
    """
    document = _read_document(source)
    version = document.get("format")
    try:
        if version != STATE_FORMAT_VERSION:
            raise StateError(f"unsupported detector state format {version!r}")
        config = _config_from_dict(document["config"])
        detector = EnhancedInFilter(config, registry=registry)
        detector.load_state(document["components"])
    except StateError:
        raise
    except (KeyError, TypeError, ValueError) as error:
        raise StateError(f"corrupt detector state: {error}") from error
    cursor = document.get("cursor")
    return detector, (int(cursor) if cursor is not None else None)


def load_detector(
    source: Union[str, Path, TextIO],
    *,
    registry: Optional[MetricsRegistry] = None,
) -> EnhancedInFilter:
    """Restore just the detector from a checkpoint."""
    detector, _ = load_checkpoint(source, registry=registry)
    return detector


def worker_checkpoint_path(
    state_dir: Union[str, Path], worker: int, workers: int
) -> Path:
    """The canonical per-worker checkpoint path inside a cluster state dir.

    Encoding the composition in the file name (``worker-01-of-04.json``)
    makes a state directory self-describing on disk and keeps a worker
    from ever opening a checkpoint written under a different shard count.
    """
    if workers <= 0:
        raise StateError(f"cluster composition must be positive: {workers}")
    if not 0 <= worker < workers:
        raise StateError(
            f"worker index {worker} out of range for {workers} workers"
        )
    return Path(state_dir) / f"worker-{worker:02d}-of-{workers:02d}.json"


def cluster_manifest_path(state_dir: Union[str, Path]) -> Path:
    """Where a cluster state directory keeps its composition manifest."""
    return Path(state_dir) / "cluster.json"


def save_cluster_manifest(
    state_dir: Union[str, Path], *, workers: int, granularity: int
) -> None:
    """Atomically record the cluster composition alongside its checkpoints.

    The manifest pins the two values that make per-worker checkpoints
    mutually compatible: the worker count (== shard count) and the router
    granularity.  Resuming under a different composition is refused by the
    CLI with a :class:`~repro.util.errors.ConfigError` naming both sides.
    """
    if workers <= 0:
        raise StateError(f"cluster composition must be positive: {workers}")
    document = {
        "format": CLUSTER_MANIFEST_VERSION,
        "granularity": granularity,
        "workers": workers,
    }
    _write_atomic(
        cluster_manifest_path(state_dir),
        json.dumps(document, sort_keys=True, separators=(",", ":")),
    )


def load_cluster_manifest(
    state_dir: Union[str, Path]
) -> Optional[Dict[str, int]]:
    """Read a state directory's composition manifest, or ``None`` if absent.

    Raises :class:`StateError` when a manifest exists but is malformed —
    a half-written or foreign ``cluster.json`` should never be mistaken
    for "no prior composition".
    """
    path = cluster_manifest_path(state_dir)
    try:
        text = path.read_text()
    except FileNotFoundError:
        return None
    except OSError as error:
        raise StateError(
            f"could not read cluster manifest {path}: {error}"
        ) from error
    try:
        document = json.loads(text)
    except json.JSONDecodeError as error:
        raise StateError(f"malformed cluster manifest: {error}") from error
    if not isinstance(document, dict):
        raise StateError("cluster manifest must be a JSON object")
    try:
        version = int(document["format"])
        if version != CLUSTER_MANIFEST_VERSION:
            raise StateError(
                f"unsupported cluster manifest format {version!r}"
            )
        return {
            "format": version,
            "granularity": int(document["granularity"]),
            "workers": int(document["workers"]),
        }
    except (KeyError, TypeError, ValueError) as error:
        raise StateError(f"corrupt cluster manifest: {error}") from error


def describe_state(source: Union[str, Path, TextIO]) -> Dict[str, Any]:
    """A cheap, human-oriented summary of a checkpoint document.

    Reads the JSON directly — no detector is constructed — so inspection
    works even when loading would be expensive.
    """
    document = _read_document(source)
    version = document.get("format")
    try:
        if version != STATE_FORMAT_VERSION:
            raise StateError(f"unsupported detector state format {version!r}")
        components = document["components"]
        model = components["model"]
        stats = components["stats"]
        return {
            "format": STATE_FORMAT_VERSION,
            "cursor": document.get("cursor"),
            "trained": model is not None,
            "classes": {
                name: {
                    "size": int(section["size"]),
                    "threshold": int(section["threshold"]),
                }
                for name, section in sorted(
                    (model["classes"] if model is not None else {}).items()
                )
            },
            "peers": {
                str(peer): len(section["prefixes"])
                for peer, section in sorted(components["eia"]["peers"].items())
            },
            "pending_absorptions": len(components["eia"]["pending"]),
            "scan_buffer": len(components["scan"]["buffer"]),
            "detectors": {
                "composition": list(
                    document["config"].get("detectors", ["infilter"])
                ),
                "policy": document["config"].get("ensemble_policy", "any"),
                "sections": sorted(components.get("detectors", {})),
            },
            "alerts": len(components["alerts"]["alerts"]),
            "alert_counter": int(components["alert_counter"]),
            "stats": {
                "processed": int(stats["processed"]),
                "legal": int(stats["legal"]),
                "suspects": int(stats["suspects"]),
                "benign": int(stats["benign"]),
                "attacks": int(stats["attacks"]),
                "absorbed": int(stats["absorbed"]),
            },
        }
    except StateError:
        raise
    except (KeyError, TypeError, ValueError) as error:
        raise StateError(f"corrupt detector state: {error}") from error
