"""Versioned, atomic detector checkpoints (state format 4).

Section 4.2: "the search data structure may be constructed off-line;
without requiring access to network traffic" — an operational deployment
trains once and restarts many times, and Section 5.1.4 treats alerts as
an *output* handed to an IDMEF consumer.  So a checkpoint at ``<path>``
is three files, each costing what changed since the last one:

* the **base** ``<path>.base-<sha256 prefix>`` — ``format``, the
  trained model (fixed by ``train()``) and the EIA plan (the owners the
  training phase handed over, Section 5.1.3(a)), named by its content
  digest.  It is written only when the detector's model object
  changes, when the plan's stamp moves, or, at ``M1`` > 1, when a
  search has drawn on a pick RNG since the last save (the model's pick
  cursors are part of its state: ``ClusterModel.pick_draws``).  A
  detector with neither a model nor a plan has no base;
* the **alert journal** ``<path>.alerts`` — one canonical JSON line per
  alert, append-only: a save appends the alerts consumed since the
  previous save, and leaves the file alone when there are none;
* the **head** ``<path>`` — ``format``, ``config``, ``cursor`` (how many
  input records were committed; ``None`` for plain saves), what the run
  changed (every mutable component section: of the EIA state only the
  learning rule's ``moves``, ``{"a.b.c.d/len": peer}``, and its
  ``pending`` counters, sorted rows ``[peer, "a.b.c.d/len", count]``;
  of the pipeline RNG its ``seed`` and ``name``, since it is only
  forked), the base's SHA-256, and the journal's *extent*
  ``(alerts, bytes, sha256)``.

They are written in that order and the head is replaced last, so a
crash anywhere leaves the previous head with a base it still names and
a journal that still starts with its extent (bytes past the extent are
a dead writer's tail: ignored on load, truncated by the next save).
:class:`CheckpointWriter` carries the incremental memory between saves;
:func:`save_detector` to a path is the one-shot full write.

The writer splices each head from canonical texts it keeps per section
and renders again only a section whose change signal moved since its
last successful save (the table is ``EnhancedInFilter.state_sections``):

* ``config`` — a new config object;
* ``eia`` — the moves' stamp, renewed when an absorption gives a block
  a learned owner other than its planned one or takes one back, when a
  preload clears a move, and on ``load_state``; the pending counters'
  stamp, which ``learn`` and ``load_state`` clear and the next look
  renews;
* ``scan`` — its value, compared with the one last rendered;
* ``stats``, ``alert_counter``, ``rng``, ``overload``, ``detectors``,
  ``cursor``, ``base`` and ``journal`` — no signal: rendered at every
  save.

The same state as one **inline** document (``components`` then also
holds ``model`` and ``alerts``, and ``components.eia`` the ``plan``) is
what :func:`render_state` and stream destinations produce and what
every equivalence test compares.

Guarantees of the format:

* **lossless** — every component round-trips through its own
  ``state_dict``/``load_state`` pair, so scan suspicion, pending
  absorptions, stats, alert history, and pick cursors all survive a
  restart; the trained model serializes its *derived* statistics, so
  loading never replays training records;
* **byte-identical** — canonical JSON everywhere (sorted keys, compact
  separators, deterministically ordered derived collections), so
  ``save(load(save(d)))`` equals ``save(d)`` byte for byte, file by file;
* **atomic** — head and base go through a temp file and ``os.replace``;
* **never silently shorter** — a missing or digest-mismatched base, a
  journal shorter than its extent, or an extent whose line count or
  digest disagrees with the head is a
  :class:`~repro.util.errors.StateError` on load.

Any other ``format`` value — including the retired v1, v2 and v3 — is
rejected with :class:`~repro.util.errors.StateError`.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
from dataclasses import asdict
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, TextIO, Tuple, Union

from repro.core.alerts import IdmefAlert, alert_state
from repro.core.clusters import ClusterModel
from repro.core.config import (
    EIAConfig,
    FeatureSpec,
    NNSConfig,
    OverloadConfig,
    PipelineConfig,
    ScanConfig,
)
from repro.core.pipeline import EnhancedInFilter
from repro.core.state import Section, SectionTable
from repro.obs import Gauge, MetricsRegistry, Stopwatch, get_registry
from repro.util.errors import StateError

__all__ = [
    "STATE_FORMAT_VERSION",
    "CheckpointWriter",
    "render_state",
    "save_detector",
    "load_checkpoint",
    "load_detector",
    "describe_state",
]

STATE_FORMAT_VERSION = 4

#: How much of a journal is read and hashed at a time while verifying
#: its extent.
_JOURNAL_CHUNK = 1 << 20

#: What a verified three-file load hands a writer:
#: ``(base sha256, journal alerts, journal bytes, running digest)``.
_Verified = Tuple[Optional[str], int, int, Any]


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


#: What ``json.dumps(document, sort_keys=True, separators=(",", ":"))``
#: renders, without building an encoder per call.
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _object(members: Dict[str, str]) -> str:
    """The canonical text of an object from its members' canonical
    texts: what :func:`_canonical` renders for the object itself (the
    key quoting is the one ``json.dumps`` uses for ``ensure_ascii``)."""
    return "{" + ",".join(
        f"{encode_basestring_ascii(name)}:{members[name]}"
        for name in sorted(members)
    ) + "}"


def render_state(
    detector: EnhancedInFilter, *, cursor: Optional[int] = None
) -> str:
    """The canonical inline checkpoint text for a detector.

    Canonical means byte-stable: sorted keys and compact separators here,
    deterministic ordering of derived collections inside each component's
    ``state_dict``.
    """
    return _canonical(
        {
            "format": STATE_FORMAT_VERSION,
            "config": _config_to_dict(detector.config),
            "cursor": cursor,
            "components": detector.state_dict(),
        }
    )


def _write_atomic(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` crash-safely (temp file + rename).

    ``os.replace`` is atomic on POSIX and Windows alike, so a reader — or
    a crash — either sees the previous complete file or the new complete
    file, never a torn write.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except OSError as error:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise StateError(
            f"could not write checkpoint {path}: {error}"
        ) from error


def _journal_path(path: Path) -> Path:
    return path.with_name(path.name + ".alerts")


def _base_path(path: Path, sha256: str) -> Path:
    return path.with_name(f"{path.name}.base-{sha256[:16]}")


def _append_at(journal: Path, extent: int, data: bytes) -> None:
    """Cut ``journal`` back to ``extent`` bytes — dropping whatever a
    save that died before its head left there — and append ``data``."""
    with open(journal, "r+b") as handle:
        handle.truncate(extent)
        handle.seek(extent)
        handle.write(data)


def _journal_lines(alerts: Iterable[IdmefAlert]) -> bytes:
    """Canonical journal text: one ``alert_state`` JSON line per alert."""
    return "".join(
        _canonical(alert_state(alert)) + "\n" for alert in alerts
    ).encode("ascii")


class CheckpointWriter:
    """Repeated checkpoints to one path, each costing what changed.

    The writer remembers what its last successful :meth:`save` left on
    disk — which model object the base holds after how many pick draws,
    at which plan stamp, and for which alert list the journal holds how
    many alerts in how many bytes under which running SHA-256 — so the
    next save renders the base only if ``detector.model`` is a different
    object or has drawn since, or the plan changed, appends only the new
    alerts (nothing at all when there are none), and always replaces the
    head.

    The head is spliced, not rendered whole: the writer keeps the
    canonical text of every leaf of
    :meth:`EnhancedInFilter.state_sections` with the key it was rendered
    at, and renders a leaf again only when its key moved; ``config`` is
    rendered once per config object.  The bytes are those of
    :func:`_canonical` on the whole head.

    The journal memo describes one alert list: it is used only while
    ``detector.alert_sink.alerts`` *is* that list and has not shrunk.
    Any other history (a hot reload swapped the detector, a
    ``load_state``, a first save) is not a prefix-extension of the
    journal as far as the writer can know cheaply — equal counts prove
    nothing and the running hash is carried, not recomputed — so the
    journal is rewritten in full.  :meth:`load` restores the checkpoint
    at the writer's own path and adopts the extent it just verified, so
    a resumed run appends.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.path = Path(path)
        self._model: Optional[ClusterModel] = None
        self._pick_draws = 0
        self._plan_stamp = 0
        self._base_sha256: Optional[str] = None
        self._alert_list: Optional[List[IdmefAlert]] = None
        self._alerts = 0
        self._journal_bytes = 0
        self._digest = hashlib.sha256()
        # Whether the journal file ends at the extent above: false after
        # a load (a dead writer's tail may follow) or a failed append.
        self._journal_exact = False
        self._config: Optional[PipelineConfig] = None
        self._config_text = ""
        # Leaf path -> (key, canonical text) as of the last save.
        self._texts: Dict[Tuple[str, ...], Tuple[Any, str]] = {}
        registry = registry if registry is not None else get_registry()
        self._registry = registry
        self._m_seconds = registry.histogram(
            "infilter_checkpoint_seconds",
            "Time spent rendering and writing one detector checkpoint.",
        )
        part_bytes = registry.gauge(
            "infilter_checkpoint_bytes",
            "Size of each checkpoint file as of the last write.",
            ("part",),
        )
        self._m_head_bytes = part_bytes.labels(part="head")
        self._m_base_bytes = part_bytes.labels(part="base")
        self._m_journal_bytes = part_bytes.labels(part="journal")
        self._m_journal_alerts = registry.gauge(
            "infilter_checkpoint_journal_alerts",
            "Alerts inside the journal extent of the last checkpoint.",
        )
        self._m_section_bytes = registry.gauge(
            "infilter_checkpoint_head_bytes",
            "Bytes of each head section as of the last write.",
            ("section",),
        )
        self._section_gauges: Dict[str, Gauge] = {}

    def save(
        self, detector: EnhancedInFilter, *, cursor: Optional[int] = None
    ) -> None:
        """Checkpoint ``detector``: base if new, journal tail, head.

        The memo moves only once the head has landed, so a failed save
        (:class:`StateError`) changes nothing the next one relies on.
        """
        watch = Stopwatch()
        model = detector.model
        pick_draws = model.pick_draws if model is not None else 0
        infilter = detector.infilter
        plan_stamp = infilter.plan_stamp
        alert_list = detector.alert_sink.alerts
        new_base = (
            model is not self._model
            or pick_draws != self._pick_draws
            or plan_stamp != self._plan_stamp
        )
        base_sha256 = (
            self._write_base(model, infilter.plan_state())
            if new_base
            else self._base_sha256
        )
        alerts, journal_bytes, digest = self._write_journal(alert_list)
        config = detector.config
        config_text = (
            self._config_text
            if config is self._config
            else _canonical(_config_to_dict(config))
        )
        texts: Dict[Tuple[str, ...], Tuple[Any, str]] = {}
        sizes = {"config": len(config_text)}
        head = _object(
            {
                "base": _canonical(
                    {"sha256": base_sha256} if base_sha256 is not None else None
                ),
                "components": self._splice(
                    detector.state_sections(), (), texts, sizes
                ),
                "config": config_text,
                "cursor": _canonical(cursor),
                "format": _canonical(STATE_FORMAT_VERSION),
                "journal": _canonical(
                    {
                        "alerts": alerts,
                        "bytes": journal_bytes,
                        "sha256": digest.hexdigest(),
                    }
                ),
            }
        ).encode("ascii")
        _write_atomic(self.path, head)
        if new_base:
            self._unlink_stale_bases(base_sha256)
        self._model = model
        self._pick_draws = pick_draws
        self._plan_stamp = plan_stamp
        self._base_sha256 = base_sha256
        self._alert_list = alert_list
        self._alerts = alerts
        self._journal_bytes = journal_bytes
        self._digest = digest
        self._journal_exact = True
        self._config = config
        self._config_text = config_text
        self._texts = texts
        self._m_head_bytes.set(len(head))
        self._m_journal_bytes.set(journal_bytes)
        self._m_journal_alerts.set(alerts)
        self._set_section_bytes(sizes)
        self._m_seconds.observe(watch.elapsed_s())

    def _splice(
        self,
        table: SectionTable,
        path: Tuple[str, ...],
        texts: Dict[Tuple[str, ...], Tuple[Any, str]],
        sizes: Dict[str, int],
    ) -> str:
        """The canonical text of ``table``: each leaf's kept text while
        its key is unchanged, a fresh render otherwise.  Fills ``texts``
        with every leaf, and ``sizes`` with leaf bytes per section (the
        first two path names)."""
        members = {}
        for name, entry in table.items():
            at = path + (name,)
            if not isinstance(entry, Section):
                members[name] = self._splice(entry, at, texts, sizes)
                continue
            kept = self._texts.get(at)
            if entry.key is None or kept is None or kept[0] != entry.key:
                kept = (entry.key, _canonical(entry.state()))
            texts[at] = kept
            members[name] = text = kept[1]
            section = ".".join(at[:2])
            sizes[section] = sizes.get(section, 0) + len(text)
        return _object(members)

    def _set_section_bytes(self, sizes: Dict[str, int]) -> None:
        for section in sizes.keys() - self._section_gauges.keys():
            self._section_gauges[section] = self._m_section_bytes.labels(
                section=section
            )
        for section, gauge in self._section_gauges.items():
            gauge.set(sizes.get(section, 0))

    def load(self) -> Tuple[EnhancedInFilter, Optional[int]]:
        """Restore the checkpoint at this writer's path and adopt it.

        Like :func:`load_checkpoint` (the detector reports into the
        writer's registry), but the next :meth:`save` of the returned
        detector appends to the journal extent this load just verified
        and keeps the base, instead of rewriting both.
        """
        detector, cursor, verified = _restore(self.path, self._registry)
        if verified is not None:
            self._model = detector.model
            self._pick_draws = 0
            self._plan_stamp = detector.infilter.plan_stamp
            self._alert_list = detector.alert_sink.alerts
            self._journal_exact = False
            (
                self._base_sha256,
                self._alerts,
                self._journal_bytes,
                self._digest,
            ) = verified
        return detector, cursor

    def _write_base(
        self, model: Optional[ClusterModel], plan: Dict[str, Any]
    ) -> Optional[str]:
        if model is None and not plan:
            return None
        data = _canonical(
            {
                "format": STATE_FORMAT_VERSION,
                "model": model.state_dict() if model is not None else None,
                "plan": plan,
            }
        ).encode("ascii")
        sha256 = hashlib.sha256(data).hexdigest()
        _write_atomic(_base_path(self.path, sha256), data)
        self._m_base_bytes.set(len(data))
        return sha256

    def _write_journal(self, alerts: List[IdmefAlert]) -> Tuple[int, int, Any]:
        """Bring the journal up to ``alerts``: ``(alerts, bytes, digest)``.

        With no new alert and a journal that ends at the extent, there is
        nothing to write.  A save that fails after appending had new
        alerts, so the next one sees more alerts than the memo and cuts
        the dead tail off.
        """
        journal = _journal_path(self.path)
        if alerts is not self._alert_list or len(alerts) < self._alerts:
            data = _journal_lines(alerts)
            self._journal_exact = False
            _write_atomic(journal, data)
            return len(alerts), len(data), hashlib.sha256(data)
        if len(alerts) == self._alerts and self._journal_exact:
            return self._alerts, self._journal_bytes, self._digest
        data = _journal_lines(alerts[self._alerts:])
        digest = self._digest.copy()
        digest.update(data)
        self._journal_exact = False
        try:
            _append_at(journal, self._journal_bytes, data)
        except OSError as error:
            raise StateError(
                f"could not append to alert journal {journal}: {error}"
            ) from error
        return len(alerts), self._journal_bytes + len(data), digest

    def _unlink_stale_bases(self, keep_sha256: Optional[str]) -> None:
        """Remove bases the head that just landed no longer names."""
        keep = (
            _base_path(self.path, keep_sha256)
            if keep_sha256 is not None
            else None
        )
        pattern = glob.escape(self.path.name) + ".base-*"
        for stale in self.path.parent.glob(pattern):
            if stale != keep:
                try:
                    stale.unlink()
                except OSError:
                    pass  # cleanup only: the checkpoint is complete


def save_detector(
    detector: EnhancedInFilter,
    destination: Union[str, Path, TextIO],
    *,
    cursor: Optional[int] = None,
) -> None:
    """Checkpoint detector state, in full.

    A path destination gets the three files (a one-shot
    :class:`CheckpointWriter`: base, whole journal, head); a stream gets
    the one inline document, and is the caller's to make crash-safe.
    ``cursor`` records how many input records were committed at
    checkpoint time, which is what ``infilter detect --resume`` skips on
    restart.
    """
    if isinstance(destination, (str, Path)):
        CheckpointWriter(destination).save(detector, cursor=cursor)
    else:
        destination.write(render_state(detector, cursor=cursor))


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
    version = document.get("format")
    if version != STATE_FORMAT_VERSION:
        raise StateError(f"unsupported detector state format {version!r}")
    return document


def _sibling_root(source: Union[str, Path, TextIO]) -> Path:
    """The path a head's base and journal names derive from."""
    if not isinstance(source, (str, Path)):
        raise StateError(
            "a checkpoint head names its base and journal by its own"
            " path; load it from the path, not from a stream"
        )
    return Path(source)


def _read_base(path: Path, base: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """The ``model`` and ``plan`` a head's ``base`` entry names,
    verified (no base: no model, an empty plan)."""
    if base is None:
        return {"model": None, "plan": {}}
    sha256 = str(base["sha256"])
    file = _base_path(path, sha256)
    try:
        data = file.read_bytes()
    except OSError as error:
        raise StateError(
            f"checkpoint {path} needs its base {file.name}: {error}"
        ) from error
    if hashlib.sha256(data).hexdigest() != sha256:
        raise StateError(
            f"checkpoint base {file} does not match the digest in the"
            f" head {path.name} (damaged, or the base of another model)"
        )
    document = json.loads(data)
    return {"model": document["model"], "plan": document["plan"]}


def _read_journal(
    path: Path, extent: Dict[str, Any], *, keep: bool
) -> Tuple[bytes, Any]:
    """Verify a head's journal extent: ``(its bytes, its digest object)``.

    Reads exactly ``extent["bytes"]`` (more is a dead writer's tail),
    and refuses a shorter file, a different SHA-256, or a different line
    count.  ``keep=False`` only verifies and returns no bytes.
    """
    journal = _journal_path(path)
    want = int(extent["bytes"])
    digest = hashlib.sha256()
    lines = 0
    chunks = []
    try:
        with open(journal, "rb") as handle:
            left = want
            while left:
                chunk = handle.read(min(left, _JOURNAL_CHUNK))
                if not chunk:
                    raise StateError(
                        f"alert journal {journal} is shorter than the"
                        f" extent in the head {path.name}:"
                        f" {want - left} < {want} bytes"
                    )
                left -= len(chunk)
                digest.update(chunk)
                lines += chunk.count(b"\n")
                if keep:
                    chunks.append(chunk)
    except OSError as error:
        raise StateError(
            f"checkpoint {path} needs its alert journal {journal.name}:"
            f" {error}"
        ) from error
    if digest.hexdigest() != extent["sha256"]:
        raise StateError(
            f"alert journal {journal} does not match the extent digest"
            f" in the head {path.name}"
        )
    if lines != int(extent["alerts"]):
        raise StateError(
            f"alert journal {journal} holds {lines} alerts in its"
            f" extent, the head {path.name} says {extent['alerts']}"
        )
    return b"".join(chunks), digest


def _restore(
    source: Union[str, Path, TextIO],
    registry: Optional[MetricsRegistry],
) -> Tuple[EnhancedInFilter, Optional[int], Optional[_Verified]]:
    document = _read_document(source)
    verified: Optional[_Verified] = None
    try:
        components = dict(document["components"])
        if "journal" in document:
            path = _sibling_root(source)
            base, extent = document["base"], document["journal"]
            based = _read_base(path, base)
            components["model"] = based["model"]
            components["eia"] = {**components["eia"], "plan": based["plan"]}
            data, digest = _read_journal(path, extent, keep=True)
            # One parse for the whole extent: its lines, comma-joined.
            components["alerts"] = {
                "alerts": json.loads(
                    b"[" + data[:-1].replace(b"\n", b",") + b"]"
                )
            }
            verified = (
                str(base["sha256"]) if base is not None else None,
                int(extent["alerts"]),
                int(extent["bytes"]),
                digest,
            )
        config = _config_from_dict(document["config"])
        detector = EnhancedInFilter(config, registry=registry)
        detector.load_state(components)
    except StateError:
        raise
    except (KeyError, TypeError, ValueError) as error:
        raise StateError(f"corrupt detector state: {error}") from error
    cursor = document.get("cursor")
    return detector, (int(cursor) if cursor is not None else None), verified


def load_checkpoint(
    source: Union[str, Path, TextIO],
    *,
    registry: Optional[MetricsRegistry] = None,
) -> Tuple[EnhancedInFilter, Optional[int]]:
    """Restore a checkpoint: ``(detector, cursor)``.

    ``source`` is the path of a three-file checkpoint's head, or an
    inline document (path or stream).  ``cursor`` is the
    committed-record count saved with the checkpoint (``None`` when the
    checkpoint was a plain save).  ``registry`` is the metrics registry
    the restored detector reports into (the process-global one when
    omitted).
    """
    detector, cursor, _verified = _restore(source, registry)
    return detector, cursor


def load_detector(
    source: Union[str, Path, TextIO],
    *,
    registry: Optional[MetricsRegistry] = None,
) -> EnhancedInFilter:
    """Restore just the detector from a checkpoint."""
    detector, _ = load_checkpoint(source, registry=registry)
    return detector


def _size(path: Path) -> Optional[int]:
    try:
        return path.stat().st_size
    except OSError:
        return None


def describe_state(source: Union[str, Path, TextIO]) -> Dict[str, Any]:
    """A cheap, human-oriented summary of a checkpoint.

    No detector is constructed.  For a three-file checkpoint only the
    head and the base are parsed: the alert count is the journal extent,
    ``parts`` gives the three file sizes and ``verified`` says whether
    the journal extent and the base digest (when the head names a base)
    check out; the journal is hashed, never parsed.  A base that does
    not verify is not read, so the model and the plan are unknown:
    ``trained`` is ``None``.  An inline document has neither key set.
    ``peers`` counts each peer's effective blocks, the plan overlaid
    with the learning rule's moves.
    """
    document = _read_document(source)
    try:
        components = document["components"]
        parts: Optional[Dict[str, Optional[int]]] = None
        verified: Optional[Dict[str, bool]] = None
        if "journal" in document:
            path = _sibling_root(source)
            base, extent = document["base"], document["journal"]
            alerts = int(extent["alerts"])
            parts = {
                "head": _size(path),
                "base": (
                    _size(_base_path(path, str(base["sha256"])))
                    if base is not None
                    else None
                ),
                "journal": _size(_journal_path(path)),
            }
            verified = {"journal": True}
            based: Dict[str, Any] = {"model": None, "plan": {}}
            if base is not None:
                try:
                    based = _read_base(path, base)
                    verified["base"] = True
                except StateError:
                    verified["base"] = False
            try:
                _read_journal(path, extent, keep=False)
            except StateError:
                verified["journal"] = False
            model = based["model"]
            eia = {**components["eia"], "plan": based["plan"]}
        else:
            model = components["model"]
            eia = components["eia"]
            alerts = len(components["alerts"]["alerts"])
        owners = {
            block: peer for peer, blocks in eia["plan"].items() for block in blocks
        }
        owners.update(eia["moves"])
        peers = {peer: 0 for peer in eia["plan"]}
        for peer in owners.values():
            peers[str(peer)] = peers.get(str(peer), 0) + 1
        stats = components["stats"]
        return {
            "format": STATE_FORMAT_VERSION,
            "cursor": document.get("cursor"),
            "trained": (
                model is not None
                if verified is None or verified.get("base", True)
                else None
            ),
            "classes": {
                name: {
                    "size": int(section["size"]),
                    "threshold": int(section["threshold"]),
                }
                for name, section in sorted(
                    (model["classes"] if model is not None else {}).items()
                )
            },
            "peers": dict(sorted(peers.items())),
            "moved_blocks": len(eia["moves"]),
            "pending_absorptions": len(eia["pending"]),
            "scan_buffer": len(components["scan"]["buffer"]),
            "detectors": {
                "composition": list(
                    document["config"].get("detectors", ["infilter"])
                ),
                "policy": document["config"].get("ensemble_policy", "any"),
                "sections": sorted(components.get("detectors", {})),
            },
            "alerts": alerts,
            "alert_counter": int(components["alert_counter"]),
            "stats": {
                "processed": int(stats["processed"]),
                "legal": int(stats["legal"]),
                "suspects": int(stats["suspects"]),
                "benign": int(stats["benign"]),
                "attacks": int(stats["attacks"]),
                "absorbed": int(stats["absorbed"]),
            },
            "parts": parts,
            "verified": verified,
        }
    except StateError:
        raise
    except (KeyError, TypeError, ValueError) as error:
        raise StateError(f"corrupt detector state: {error}") from error
