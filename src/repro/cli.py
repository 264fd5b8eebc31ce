"""Command-line interface.

``infilter`` exposes the library's operational surface:

* ``infilter synth``      — synthesise traffic (normal or an attack) into a flow file;
* ``infilter report``     — flow-report style statistics over a flow file;
* ``infilter detect``     — run the Enhanced InFilter over a flow file and
  emit IDMEF alerts (plus a trace-back summary).  The file is committed
  in ``--batch-size``-record batches by the same
  :class:`~repro.serve.CommitWorker` ``serve`` runs, with verdicts
  identical to record-at-a-time processing at any size;
  ``--checkpoint-every N`` writes an atomic checkpoint to the
  ``--save-state`` path every N committed batches and
  ``--load-state … --resume`` continues a killed run from its checkpoint
  cursor; ``--detectors`` / ``--ensemble-policy`` compose a
  multi-detector ensemble (TTL profiles, bogon filtering) around the
  InFilter chain.  Every flag named here means the same in ``serve``;
* ``infilter serve``      — run the live serving daemon: an asyncio UDP
  listener for real NetFlow v5/v1 export datagrams, bounded-queue
  backpressure with a load-shedding policy, micro-batched commits,
  batch-boundary checkpoints (``--save-state``/``--checkpoint-every``),
  warm restart (``--load-state --resume``), graceful SIGTERM drain,
  SIGHUP hot reload, and an HTTP observability endpoint (``--http-port``);
  one daemon per collector host, as Figure 9 draws it;
* ``infilter state``      — checkpoint tooling: ``state inspect CKPT``
  summarizes a saved checkpoint without loading it;
* ``infilter validate``   — run the Section 3 hypothesis-validation studies;
* ``infilter experiment`` — run one Section 6.3 experiment point;
* ``infilter convert``    — convert flow files between binary and ASCII;
* ``infilter stats``      — render a metrics snapshot (from a
  ``--metrics-out`` file or the current process registry).

Every command is deterministic given ``--seed``.  EIA sets for ``detect``
come from a plain-text plan file with one ``<peer> <prefix>`` pair per
line (``#`` comments allowed).

``detect`` and ``experiment`` accept ``--metrics-out PATH``: the run's
observability registry (see ``docs/observability.md``) is written after
the run — a JSON snapshot when ``PATH`` ends in ``.json`` (re-renderable
with ``infilter stats``), Prometheus text otherwise.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.core.persistence import CheckpointWriter

from repro.core import (
    ENSEMBLE_POLICIES,
    EnhancedInFilter,
    PipelineConfig,
    TracebackAnalyzer,
    available_detectors,
)
from repro.flowgen import (
    ATTACK_NAMES,
    Dagflow,
    SubBlockSpace,
    eia_allocation,
    generate_attack,
    synthesize_trace,
)
from repro.netflow.files import (
    export_ascii,
    import_ascii,
    read_flow_file,
    write_flow_file,
)
from repro.netflow.records import FlowRecord
from repro.netflow.reports import build_report
from repro.obs import (
    MetricError,
    MetricsRegistry,
    load_snapshot_text,
    render_json,
    render_prometheus,
    use_registry,
)
from repro.serve import CommitWorker, ServeConfig, ServeDaemon, ServeReport
from repro.util.errors import ReproError
from repro.util.ip import Prefix
from repro.util.rng import SeededRng
from repro.util.timebase import HOUR, MINUTE

__all__ = ["main", "build_parser"]


def _load_flows(path: str) -> List[FlowRecord]:
    """Read a flow file, auto-detecting binary vs ASCII."""
    try:
        data = Path(path).read_bytes()
        if data.startswith(b"RFL1"):
            return read_flow_file(path)
        return import_ascii(path)
    except OSError as error:
        raise ReproError(f"cannot read flow file: {error}") from error


def _save_flows(path: str, records: Sequence[FlowRecord], ascii_format: bool) -> int:
    try:
        if ascii_format:
            return export_ascii(path, records)
        return write_flow_file(path, records)
    except OSError as error:
        raise ReproError(f"cannot write flow file: {error}") from error


def _pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    """Build the detect/serve pipeline config from the shared flags.

    ``--detectors`` is a comma-separated composition in vote order;
    ``--ensemble-policy`` picks the combiner.  Both default to the
    paper's InFilter-only chain, and both are validated by
    :class:`PipelineConfig` itself, so a typo'd detector name or policy
    surfaces as a single ``error:`` line rather than a traceback.
    """
    base = (
        PipelineConfig.basic() if args.basic
        else PipelineConfig.enhanced_default()
    )
    if args.detectors is None and args.ensemble_policy is None:
        return base
    detectors = (
        tuple(
            name.strip()
            for name in args.detectors.split(",")
            if name.strip()
        )
        if args.detectors is not None
        else base.detectors
    )
    policy = (
        args.ensemble_policy
        if args.ensemble_policy is not None
        else base.ensemble_policy
    )
    return dataclasses.replace(
        base, detectors=detectors, ensemble_policy=policy
    )


def _load_eia_plan(path: str) -> Dict[int, List[Prefix]]:
    """Parse a ``<peer> <prefix>`` plan file."""
    try:
        text = Path(path).read_text()
    except OSError as error:
        raise ReproError(f"cannot read EIA plan: {error}") from error
    plan: Dict[int, List[Prefix]] = {}
    for line_number, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            peer_text, prefix_text = line.split()
            peer = int(peer_text)
        except ValueError:
            raise ReproError(
                f"{path}:{line_number}: expected '<peer> <prefix>', got {line!r}"
            ) from None
        plan.setdefault(peer, []).append(Prefix.parse(prefix_text))
    if not plan:
        raise ReproError(f"{path}: no EIA entries found")
    return plan


# -- synth ----------------------------------------------------------------


def _cmd_synth(args: argparse.Namespace) -> int:
    rng = SeededRng(args.seed, "cli-synth")
    if args.attack is not None:
        flows = generate_attack(args.attack, rng=rng.fork("attack"))
    else:
        flows = synthesize_trace(args.flows, rng=rng.fork("trace"))
    space = SubBlockSpace()
    plan = eia_allocation(space)
    peer = args.peer % len(plan)
    if args.spoof:
        blocks = [
            block
            for other, owned in plan.items()
            if other != peer
            for block in owned
        ]
    else:
        blocks = plan[peer]
    dagflow = Dagflow(
        "cli",
        target_prefix=Prefix.parse(args.target),
        udp_port=9000,
        source_blocks=blocks,
        rng=rng.fork("dagflow"),
    )
    records = [
        lr.record.with_key(input_if=args.peer) for lr in dagflow.replay(flows)
    ]
    count = _save_flows(args.output, records, args.ascii)
    print(f"wrote {count} flow records to {args.output}")
    return 0


# -- report ------------------------------------------------------------------


def _cmd_report(args: argparse.Namespace) -> int:
    records = _load_flows(args.flow_file)
    group_by = tuple(args.group_by.split(","))
    report = build_report(records, group_by=group_by)
    if args.format == "csv":
        print(report.to_csv(limit=args.top), end="")
        return 0
    if args.format == "json":
        print(report.to_json(limit=args.top))
        return 0
    print(report.render(limit=args.top))
    totals = report.totals()
    print(
        f"\n{totals.flows} flows, {totals.packets} packets,"
        f" {totals.octets} octets across {len(report.groups)} groups"
    )
    return 0


# -- detect ---------------------------------------------------------------


def _write_metrics(registry: MetricsRegistry, path: str) -> None:
    """Write a registry snapshot: JSON for ``*.json``, Prometheus text
    otherwise."""
    text = (
        render_json(registry) + "\n"
        if path.endswith(".json")
        else render_prometheus(registry)
    )
    try:
        Path(path).write_text(text)
    except OSError as error:
        raise ReproError(f"cannot write metrics file: {error}") from error


def _open_state(
    load_state: Optional[str], save_state: Optional[str]
) -> Tuple[Optional[EnhancedInFilter], Optional[int], Optional["CheckpointWriter"]]:
    """``--load-state`` / ``--save-state``: ``(detector, cursor, writer)``.

    A run that saves where it loaded from loads *through* the writer it
    will keep saving with, so its checkpoints append to the alert
    journal the load verified instead of rewriting it.
    """
    from repro.core.persistence import CheckpointWriter, load_checkpoint

    writer = CheckpointWriter(save_state) if save_state else None
    if not load_state:
        return None, None, writer
    if writer is not None and Path(load_state).resolve() == writer.path.resolve():
        return (*writer.load(), writer)
    return (*load_checkpoint(load_state), writer)


def _cmd_detect(args: argparse.Namespace) -> int:
    # A fresh registry per run isolates the snapshot from anything else
    # the process counted; components pick it up as the default.
    registry = MetricsRegistry()
    with use_registry(registry):
        code = _run_detect(args)
    if code == 0 and args.metrics_out:
        _write_metrics(registry, args.metrics_out)
        print(f"metrics written to {args.metrics_out}",
              file=sys.stderr if args.idmef else sys.stdout)
    return code


def _prepare_detector(
    args: argparse.Namespace,
    seed_label: str,
    default_training: Callable[[EnhancedInFilter], List[FlowRecord]],
) -> Tuple[EnhancedInFilter, int, Optional["CheckpointWriter"], int]:
    """What ``detect`` and ``serve`` do before their commit worker runs.

    Checks the checkpoint flags, then restores the ``--load-state``
    detector or builds one from the EIA plan (:func:`_build_detector`).
    Returns ``(detector, cursor_base, writer, checkpoint_every)``:
    ``cursor_base`` is the restored checkpoint's cursor under
    ``--resume`` and 0 otherwise, ``writer`` the ``--save-state``
    checkpoint writer (the one the detector was loaded through, when
    both flags name one path).
    """
    checkpoint_every = args.checkpoint_every or 0
    if args.checkpoint_every is not None and args.checkpoint_every < 1:
        raise ReproError("--checkpoint-every must be >= 1")
    if checkpoint_every and not args.save_state:
        raise ReproError(
            "--checkpoint-every needs --save-state for the checkpoint path"
        )
    if args.resume and not args.load_state:
        raise ReproError("--resume needs --load-state")
    restored, saved_cursor, writer = _open_state(args.load_state, args.save_state)
    if restored is None:
        detector = _build_detector(args, seed_label, default_training)
        return detector, 0, writer, checkpoint_every
    if args.eia_plan:
        print(
            "note: --load-state supplied; ignoring the EIA plan file",
            file=sys.stderr,
        )
    if args.detectors is not None or args.ensemble_policy is not None:
        print(
            "note: --load-state supplied; the detector composition"
            " comes from the checkpoint",
            file=sys.stderr,
        )
    if not args.resume:
        return restored, 0, writer, checkpoint_every
    if saved_cursor is None:
        raise ReproError("the checkpoint has no cursor to resume from")
    return restored, saved_cursor, writer, checkpoint_every


def _build_detector(
    args: argparse.Namespace,
    seed_label: str,
    default_training: Callable[[EnhancedInFilter], List[FlowRecord]],
) -> EnhancedInFilter:
    """Preload the EIA plan and, unless ``--basic``, train.

    ``default_training`` supplies the training flows when there is no
    ``--training-file`` — or raises, where there is nothing to fall back
    on.
    """
    if not args.eia_plan:
        raise ReproError("an EIA plan file is required without --load-state")
    plan = _load_eia_plan(args.eia_plan)
    detector = EnhancedInFilter(
        _pipeline_config(args), rng=SeededRng(args.seed, seed_label)
    )
    for peer, prefixes in plan.items():
        detector.preload_eia(peer, prefixes)
    if not args.basic:
        training = (
            _load_flows(args.training_file)
            if args.training_file
            else default_training(detector)
        )
        if not training:
            raise ReproError("no training flows available")
        detector.train(training)
    return detector


def _run_detect(args: argparse.Namespace) -> int:
    out = sys.stderr if args.idmef else sys.stdout
    records = _load_flows(args.flow_file)

    def eia_legal_input(detector: EnhancedInFilter) -> List[FlowRecord]:
        # Self-train on the input's EIA-legal traffic.
        return [
            record
            for record in records
            if not detector.infilter.check(record).suspect
        ]

    detector, resume_cursor, writer, checkpoint_every = _prepare_detector(
        args, "cli-detect", eia_legal_input
    )
    if args.resume:
        if resume_cursor > len(records):
            raise ReproError(
                f"checkpoint cursor {resume_cursor} is beyond the"
                f" {len(records)}-record input"
            )
        print(f"resuming at record {resume_cursor} of {len(records)}", file=out)
    # A periodic-checkpoint run hands the worker its writer, so the final
    # checkpoint records the cursor and --resume can skip the whole
    # committed stream; a plain --save-state carries no cursor.
    periodic = writer if checkpoint_every else None
    worker = CommitWorker(
        detector,
        None,
        ServeConfig(
            batch_size=args.batch_size,
            checkpoint_every=checkpoint_every,
            checkpoint_path=args.save_state if checkpoint_every else None,
        ),
        cursor_base=resume_cursor,
        writer=periodic,
    )
    # Restored stats are cumulative across the detector's lifetime;
    # summarize *this run* by diffing against the starting snapshot.
    stats = detector.stats
    base_legal = stats.legal
    base_suspects = stats.suspects
    base_attacks = stats.attacks
    base_latency_s = stats.latency_total_s
    alerts_before = len(detector.alert_sink.alerts)
    worker.run_offline(records[resume_cursor:])
    run_alerts = detector.alert_sink.alerts[alerts_before:]
    if args.idmef:
        for alert in run_alerts:
            print(alert.to_xml())
    run_latency_s = stats.latency_total_s - base_latency_s
    mean_latency_s = run_latency_s / worker.committed if worker.committed else 0.0
    print(
        f"processed {worker.committed} flows:"
        f" {stats.legal - base_legal} legal,"
        f" {stats.suspects - base_suspects} suspect,"
        f" {stats.attacks - base_attacks} flagged as attacks"
        f" (mean latency {mean_latency_s * 1e3:.3f} ms)",
        file=out,
    )
    print(f"batches: {worker.batches} committed", file=out)
    if worker.checkpoints:
        print(f"checkpoints: {worker.checkpoints} written", file=out)
    memo = detector.fastpath.stats()
    print(
        f"fastpath: {memo['hits']} memo hits,"
        f" {memo['misses']} misses,"
        f" {memo['evictions']} evictions,"
        f" {memo['invalidations']} invalidations",
        file=out,
    )
    analyzer = TracebackAnalyzer()
    analyzer.consume_all(run_alerts)
    if len(analyzer):
        print(f"trace-back: {analyzer.report().summary()}", file=out)
    if writer is not None:
        if periodic is None:
            writer.save(detector)
        print(f"detector state saved to {args.save_state}", file=out)
    return 0


# -- serve --------------------------------------------------------------------


def _parse_listen(value: str) -> Tuple[str, int]:
    """Parse ``HOST:PORT`` (or bare ``PORT``) for --listen/--http."""
    host, _, port_text = value.rpartition(":")
    if not host:
        host = "127.0.0.1"
    try:
        port = int(port_text)
    except ValueError:
        raise ReproError(
            f"invalid listen address {value!r}; expected HOST:PORT"
        ) from None
    if not 0 <= port <= 65_535:
        raise ReproError(f"listen port {port} out of range [0, 65535]")
    return host, port


def _refuse_self_training(detector: EnhancedInFilter) -> List[FlowRecord]:
    raise ReproError(
        "an EI serve daemon needs --training-file (or --load-state);"
        " there is no input file to self-train on"
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    registry = MetricsRegistry()
    with use_registry(registry):
        code = _run_serve(args, registry)
    if code == 0 and args.metrics_out:
        _write_metrics(registry, args.metrics_out)
        print(f"metrics written to {args.metrics_out}")
    return code


def _run_serve(args: argparse.Namespace, registry: MetricsRegistry) -> int:
    detector, cursor_base, writer, checkpoint_every = _prepare_detector(
        args, "cli-serve", _refuse_self_training
    )
    if args.resume:
        print(f"resuming warm at cursor {cursor_base}")
    host, port = _parse_listen(args.listen)
    serve_config = ServeConfig(
        host=host,
        port=port,
        queue_capacity=args.queue_capacity,
        shed_policy=args.shed_policy,
        batch_size=args.batch_size,
        checkpoint_every=checkpoint_every,
        checkpoint_path=args.save_state,
        http_port=args.http_port,
        max_records=args.max_records,
        idle_exit_s=args.idle_exit_s,
    )
    daemon = ServeDaemon(
        detector,
        serve_config,
        registry=registry,
        cursor_base=cursor_base,
        writer=writer,
    )
    alerts_before = 0 if args.resume else len(detector.alert_sink.alerts)
    report = asyncio.run(_serve_and_announce(daemon))
    print(report.describe())
    if args.alerts_out:
        alerts = daemon.detector.alert_sink.alerts[alerts_before:]
        Path(args.alerts_out).write_text(
            "".join(alert.to_xml() + "\n" for alert in alerts)
        )
        print(f"{len(alerts)} alerts written to {args.alerts_out}")
    if args.save_state:
        print(f"detector state saved to {args.save_state}")
    return 0


async def _serve_and_announce(daemon: ServeDaemon) -> ServeReport:
    """Run the daemon, printing the bound addresses once listening."""
    task = asyncio.ensure_future(daemon.run())
    await daemon.wait_started()
    assert daemon.address is not None
    print(f"listening on udp://{daemon.address[0]}:{daemon.address[1]}")
    if daemon.http_address is not None:
        print(
            f"observability on http://{daemon.http_address[0]}:"
            f"{daemon.http_address[1]} (/healthz /metrics /stats.json)"
        )
    sys.stdout.flush()
    return await task


# -- state --------------------------------------------------------------------


def _cmd_state_inspect(args: argparse.Namespace) -> int:
    import json

    from repro.core.persistence import describe_state

    description = describe_state(args.checkpoint)
    if args.format == "json":
        print(json.dumps(description, indent=2, sort_keys=True))
        return 0
    print(f"checkpoint: {args.checkpoint}")
    print(f"format: v{description['format']}")
    cursor = description["cursor"]
    print(f"cursor: {cursor if cursor is not None else '(none)'}")
    trained = description["trained"]
    print(
        "trained: "
        + ("unknown" if trained is None else "yes" if trained else "no")
    )
    for name, info in description["classes"].items():
        print(
            f"  class {name}: {info['size']} flows,"
            f" threshold {info['threshold']}"
        )
    peers = description["peers"]
    blocks = sum(peers.values())
    print(f"peers: {len(peers)} ({blocks} expected blocks)")
    print(f"moved blocks: {description['moved_blocks']}")
    print(f"pending absorptions: {description['pending_absorptions']}")
    print(f"scan buffer: {description['scan_buffer']} suspect flows")
    print(f"alerts stored: {description['alerts']}")
    parts, verified = description["parts"], description["verified"]
    if parts is None:
        print("files: one inline document")
    else:

        def part(name: str) -> str:
            size = parts[name]
            if size is None:
                return f"{name} missing"
            text = f"{name} {size} bytes"
            if name in verified:
                text += " (verifies)" if verified[name] else " (DOES NOT VERIFY)"
            return text

        base = (
            part("base") if "base" in verified else "no base (no model, no plan)"
        )
        print(f"files: {part('head')}; {base}; {part('journal')}")
    print(f"alert counter: {description['alert_counter']}")
    print(
        "stats: processed={processed} legal={legal} suspects={suspects}"
        " benign={benign} attacks={attacks}"
        " absorbed={absorbed}".format(**description["stats"])
    )
    return 0


# -- validate -----------------------------------------------------------------


def _cmd_validate(args: argparse.Namespace) -> int:
    if args.study == "traceroute":
        from repro.validation import TracerouteStudyConfig, run_traceroute_study

        result = run_traceroute_study(
            TracerouteStudyConfig(
                n_sites=args.sites,
                n_targets=args.targets,
                period_s=args.period_minutes * MINUTE,
                duration_s=args.duration_hours * HOUR,
                seed=args.seed,
            )
        )
        print(result.summary())
    elif args.study == "bgp":
        from repro.validation import BgpStudyConfig, run_bgp_study

        result = run_bgp_study(
            BgpStudyConfig(
                n_targets=args.targets,
                duration_s=args.duration_hours * HOUR,
                seed=args.seed,
            )
        )
        print(result.summary())
        for peers, change in result.figure5_points():
            print(f"  {peers:3d} peers -> {change:.2%}")
    else:
        from repro.validation import StabilityConfig, run_route_stability_study

        result = run_route_stability_study(
            StabilityConfig(duration_s=args.duration_hours * HOUR, seed=args.seed)
        )
        for position, rate in result.curve():
            bar = "#" * int(rate * 60)
            print(f"  {position:4.2f} {rate:6.2%} {bar}")
    return 0


# -- experiment --------------------------------------------------------------


def _cmd_experiment(args: argparse.Namespace) -> int:
    registry = MetricsRegistry()
    with use_registry(registry):
        code = _run_experiment(args, registry)
    if code == 0 and args.metrics_out:
        _write_metrics(registry, args.metrics_out)
        print(f"metrics written to {args.metrics_out}")
    return code


def _run_experiment(args: argparse.Namespace, registry: MetricsRegistry) -> int:
    from repro.testbed import ExperimentParams, TestbedConfig, run_point

    params = ExperimentParams(
        attack_volume=args.attack_volume,
        attack_peers=tuple(range(10)) if args.stress else (0,),
        route_change_blocks=args.route_change,
        rotate_allocations=args.route_change > 0 and args.rotate,
        normal_flows_per_peer=args.flows,
        enhanced=not args.basic,
        runs=args.runs,
        seed=args.seed,
        suspect_capacity=25.0 if args.stress else None,
    )
    series = run_point(TestbedConfig(training_flows=args.training_flows), params)
    series.publish(registry)
    print(
        f"detection={series.detection_rate:.1%}"
        f" (std {series.detection_rate_std:.1%})"
        f" false_positives={series.false_positive_rate:.2%}"
        f" (std {series.false_positive_rate_std:.2%})"
        f" latency={series.latency_mean_s * 1e3:.3f} ms"
    )
    for name, (detected, total) in series.by_type().items():
        print(f"  {name}: {detected}/{total}")
    return 0


# -- convert ---------------------------------------------------------------


def _cmd_convert(args: argparse.Namespace) -> int:
    records = _load_flows(args.input)
    count = _save_flows(args.output, records, args.ascii)
    print(f"converted {count} records -> {args.output}")
    return 0


# -- sample -------------------------------------------------------------------


def _cmd_sample(args: argparse.Namespace) -> int:
    from repro.netflow.sampling import sample_records

    records = _load_flows(args.input)
    rng = SeededRng(args.seed, "cli-sample")
    sampled = list(sample_records(records, args.interval, rng=rng))
    count = _save_flows(args.output, sampled, args.ascii)
    print(
        f"1-in-{args.interval} sampling: kept {count} of"
        f" {len(records)} records -> {args.output}"
    )
    return 0


# -- expand / aggregate (DAG packet traces) -----------------------------------


def _cmd_expand(args: argparse.Namespace) -> int:
    from repro.flowgen.dagfile import packets_from_flows, write_dag
    from repro.flowgen.traces import TraceFlow

    records = _load_flows(args.input)
    # Records already carry concrete addresses; expand them verbatim.
    flows = [
        TraceFlow(
            start_ms=record.first,
            protocol=record.key.protocol,
            src_port=record.key.src_port,
            dst_port=record.key.dst_port,
            packets=record.packets,
            octets=record.octets,
            duration_ms=record.duration_ms(),
            dst_host=0,
            tcp_flags=record.tcp_flags,
        )
        for record in records
    ]
    addresses = [(r.key.src_addr, r.key.dst_addr) for r in records]
    index = {"i": -1}

    def src_for(_flow: object) -> int:
        index["i"] += 1
        return addresses[index["i"]][0]

    def dst_for(_flow: object) -> int:
        return addresses[index["i"]][1]

    packets = packets_from_flows(
        flows, src_addr_for=src_for, dst_addr_for=dst_for,
        rng=SeededRng(args.seed, "cli-expand"),
    )
    count = write_dag(args.output, packets)
    print(f"expanded {len(records)} flows into {count} packets -> {args.output}")
    return 0


def _cmd_aggregate(args: argparse.Namespace) -> int:
    from repro.flowgen.dagfile import flows_from_packets, read_dag

    packets = read_dag(args.input)
    records = flows_from_packets(packets, input_if=args.peer)
    count = _save_flows(args.output, records, args.ascii)
    print(f"aggregated {len(packets)} packets into {count} flows -> {args.output}")
    return 0


# -- filter -------------------------------------------------------------------


def _cmd_filter(args: argparse.Namespace) -> int:
    from repro.netflow.filters import parse_filter_expression

    records = _load_flows(args.input)
    flow_filter = parse_filter_expression(args.expression)
    kept = list(flow_filter.apply(records))
    count = _save_flows(args.output, kept, args.ascii)
    print(
        f"filter {flow_filter.description}:"
        f" kept {count} of {len(records)} records -> {args.output}"
    )
    return 0


# -- stats --------------------------------------------------------------------


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.obs import get_registry

    if args.snapshot is not None:
        try:
            text = Path(args.snapshot).read_text()
        except OSError as error:
            raise MetricError(f"cannot read metrics snapshot: {error}") from error
        registry = load_snapshot_text(text)
    else:
        registry = get_registry()
    if args.format == "json":
        print(render_json(registry))
    else:
        print(render_prometheus(registry), end="")
    return 0


# -- anonymize ---------------------------------------------------------------


def _cmd_anonymize(args: argparse.Namespace) -> int:
    from repro.netflow.anonymize import PrefixPreservingAnonymizer

    records = _load_flows(args.input)
    anonymizer = PrefixPreservingAnonymizer(args.key.encode("utf-8"))
    mapped = anonymizer.anonymize_all(records)
    count = _save_flows(args.output, mapped, args.ascii)
    print(
        f"anonymized {count} records -> {args.output}"
        f" (prefix-preserving, keyed)"
    )
    return 0


def _add_detector_arguments(command: argparse.ArgumentParser) -> None:
    """The flags ``detect`` and ``serve`` share, with one meaning each:
    how the detector is built or restored, and how its commit worker
    batches and checkpoints."""
    command.add_argument(
        "eia_plan", nargs="?", default=None, help="'<peer> <prefix>' per line"
    )
    command.add_argument(
        "--training-file", default=None, help="flow file to train the EI model on"
    )
    command.add_argument("--basic", action="store_true", help="BI configuration")
    command.add_argument(
        "--detectors",
        default=None,
        metavar="NAMES",
        help="comma-separated detector composition, in vote order"
        f" (available: {', '.join(available_detectors())};"
        " default: infilter alone)",
    )
    command.add_argument(
        "--ensemble-policy",
        default=None,
        metavar="POLICY",
        help="multi-detector vote combiner:"
        f" {', '.join(ENSEMBLE_POLICIES)} (default: any)",
    )
    command.add_argument(
        "--load-state", default=None, help="restore detector state instead of training"
    )
    command.add_argument(
        "--save-state",
        default=None,
        help="checkpoint path: periodic (with --checkpoint-every) plus the"
        " detector state once the input is committed or the daemon drained",
    )
    command.add_argument(
        "--resume",
        action="store_true",
        help="continue from the --load-state checkpoint's committed-record"
        " cursor: detect skips that many input records, serve restarts warm",
    )
    command.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="write an atomic checkpoint to --save-state every N committed"
        " batches",
    )
    command.add_argument(
        "--batch-size",
        type=int,
        default=ServeConfig.batch_size,
        help="records per commit batch (default %(default)s); a size,"
        " not a mode: verdicts and checkpoints are the same at any value",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infilter",
        description="InFilter: predictive ingress filtering (ICDCS 2005 reproduction)",
    )
    parser.add_argument("--seed", type=int, default=2005, help="global RNG seed")
    commands = parser.add_subparsers(dest="command", required=True)

    synth = commands.add_parser("synth", help="synthesise traffic into a flow file")
    synth.add_argument("output")
    synth.add_argument("--flows", type=int, default=1000)
    synth.add_argument("--attack", choices=sorted(ATTACK_NAMES), default=None)
    synth.add_argument("--peer", type=int, default=0)
    synth.add_argument(
        "--spoof",
        action="store_true",
        help="draw source addresses from the OTHER peers' blocks",
    )
    synth.add_argument("--target", default="198.18.0.0/16")
    synth.add_argument("--ascii", action="store_true")
    synth.set_defaults(handler=_cmd_synth)

    report = commands.add_parser("report", help="flow statistics over a flow file")
    report.add_argument("flow_file")
    report.add_argument("--group-by", default="dst_port")
    report.add_argument("--top", type=int, default=20)
    report.add_argument(
        "--format", choices=("table", "csv", "json"), default="table"
    )
    report.set_defaults(handler=_cmd_report)

    detect = commands.add_parser("detect", help="run the detector over a flow file")
    detect.add_argument("flow_file")
    _add_detector_arguments(detect)
    detect.add_argument("--idmef", action="store_true", help="print IDMEF XML per alert")
    detect.add_argument(
        "--metrics-out",
        default=None,
        help="write the run's metrics snapshot (.json = JSON, else Prometheus text)",
    )
    detect.set_defaults(handler=_cmd_detect)

    serve = commands.add_parser(
        "serve", help="run the live NetFlow serving daemon (Figure 9)"
    )
    _add_detector_arguments(serve)
    serve.add_argument(
        "--listen",
        default="127.0.0.1:9995",
        metavar="HOST:PORT",
        help="UDP address for NetFlow v5/v1 export datagrams (port 0 ="
        " ephemeral; default %(default)s)",
    )
    serve.add_argument(
        "--http-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve /healthz, /metrics and /stats.json on this port (0 ="
        " ephemeral)",
    )
    serve.add_argument(
        "--queue-capacity",
        type=int,
        default=65_536,
        help="ingest queue bound in records (default %(default)s)",
    )
    serve.add_argument(
        "--shed-policy",
        choices=("drop-oldest", "reject-newest"),
        default="drop-oldest",
        help="which record loses when the queue is full (default %(default)s)",
    )
    serve.add_argument(
        "--max-records",
        type=int,
        default=None,
        metavar="N",
        help="drain and exit after committing N records (bounded runs)",
    )
    serve.add_argument(
        "--idle-exit-s",
        type=float,
        default=None,
        metavar="S",
        help="drain and exit after S seconds without traffic",
    )
    serve.add_argument(
        "--alerts-out",
        default=None,
        metavar="PATH",
        help="write the run's IDMEF alert stream (one XML document per line)",
    )
    serve.add_argument(
        "--metrics-out",
        default=None,
        help="write the run's metrics snapshot (.json = JSON, else Prometheus text)",
    )
    serve.set_defaults(handler=_cmd_serve)

    state = commands.add_parser(
        "state", help="inspect saved detector checkpoints"
    )
    state_commands = state.add_subparsers(dest="state_command", required=True)
    state_inspect = state_commands.add_parser(
        "inspect", help="summarize a checkpoint file"
    )
    state_inspect.add_argument("checkpoint")
    state_inspect.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    state_inspect.set_defaults(handler=_cmd_state_inspect)

    validate = commands.add_parser("validate", help="Section 3 validation studies")
    validate.add_argument("study", choices=("traceroute", "bgp", "stability"))
    validate.add_argument("--sites", type=int, default=12)
    validate.add_argument("--targets", type=int, default=10)
    validate.add_argument("--period-minutes", type=float, default=30.0)
    validate.add_argument("--duration-hours", type=float, default=24.0)
    validate.set_defaults(handler=_cmd_validate)

    experiment = commands.add_parser("experiment", help="one Section 6.3 point")
    experiment.add_argument("--attack-volume", type=float, default=0.04)
    experiment.add_argument("--stress", action="store_true", help="attacks at all peers")
    experiment.add_argument("--route-change", type=int, default=2)
    experiment.add_argument("--rotate", action="store_true")
    experiment.add_argument("--basic", action="store_true")
    experiment.add_argument("--flows", type=int, default=1000)
    experiment.add_argument("--training-flows", type=int, default=2000)
    experiment.add_argument("--runs", type=int, default=2)
    experiment.add_argument(
        "--metrics-out",
        default=None,
        help="write the run's metrics snapshot (.json = JSON, else Prometheus text)",
    )
    experiment.set_defaults(handler=_cmd_experiment)

    convert = commands.add_parser("convert", help="convert flow file formats")
    convert.add_argument("input")
    convert.add_argument("output")
    convert.add_argument("--ascii", action="store_true", help="write ASCII output")
    convert.set_defaults(handler=_cmd_convert)

    sample = commands.add_parser(
        "sample", help="apply 1-in-N packet sampling to a flow file"
    )
    sample.add_argument("input")
    sample.add_argument("output")
    sample.add_argument("--interval", type=int, required=True)
    sample.add_argument("--ascii", action="store_true")
    sample.set_defaults(handler=_cmd_sample)

    expand = commands.add_parser(
        "expand", help="expand a flow file into a DAG packet trace"
    )
    expand.add_argument("input")
    expand.add_argument("output")
    expand.set_defaults(handler=_cmd_expand)

    aggregate = commands.add_parser(
        "aggregate", help="aggregate a DAG packet trace into a flow file"
    )
    aggregate.add_argument("input")
    aggregate.add_argument("output")
    aggregate.add_argument("--peer", type=int, default=0)
    aggregate.add_argument("--ascii", action="store_true")
    aggregate.set_defaults(handler=_cmd_aggregate)

    flow_filter = commands.add_parser(
        "filter", help="filter a flow file with key=value terms"
    )
    flow_filter.add_argument("input")
    flow_filter.add_argument("output")
    flow_filter.add_argument(
        "expression",
        help="space-separated key=value terms (AND; prefix ! negates),"
        " e.g. 'proto=17 dport=1434 dst=198.18.0.0/16'",
    )
    flow_filter.add_argument("--ascii", action="store_true")
    flow_filter.set_defaults(handler=_cmd_filter)

    stats = commands.add_parser(
        "stats", help="render a metrics snapshot (Prometheus text or JSON)"
    )
    stats.add_argument(
        "snapshot",
        nargs="?",
        default=None,
        help="JSON snapshot file from --metrics-out; omit for the"
        " current process registry",
    )
    stats.add_argument(
        "--format", choices=("prometheus", "json"), default="prometheus"
    )
    stats.set_defaults(handler=_cmd_stats)

    anonymize = commands.add_parser(
        "anonymize", help="prefix-preserving address anonymization"
    )
    anonymize.add_argument("input")
    anonymize.add_argument("output")
    anonymize.add_argument(
        "--key", required=True, help="anonymization key (>= 8 characters)"
    )
    anonymize.add_argument("--ascii", action="store_true")
    anonymize.set_defaults(handler=_cmd_anonymize)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
