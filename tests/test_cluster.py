"""Tests for :mod:`repro.cluster` — the multi-process serving cluster.

The heart of this file is the serial-equivalence guarantee: a cluster
run over a fixed input produces the same canonical alert stream as one
serial ``process_all``, including across a SIGKILL-and-supervised-restart
of a worker mid-run.

Scan analysis buffers suspect flows *across* flows, so the guarantee
holds when every suspect flow routes to one shard (legal traffic never
enters the scan buffer and may span shards freely).  The shared trace
below builds exactly that shape: legal traffic over all of peer 0's
blocks, spoofed attack traffic confined to foreign blocks owned by
shard 0.
"""

from __future__ import annotations

import asyncio
import os
import signal
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.cluster import (
    ClusterConfig,
    ClusterSupervisor,
    FlowDirector,
    canonical_alerts,
    federate,
    seed_cluster_state,
)
from repro.cluster.router import ShardRouter
from repro.core.persistence import (
    load_cluster_manifest,
    save_cluster_manifest,
    worker_checkpoint_path,
)
from repro.flowgen import Dagflow, generate_attack, synthesize_trace
from repro.netflow.records import FlowKey, FlowRecord
from repro.netflow.v5 import (
    HEADER_LEN,
    RECORD_LEN,
    datagrams_for,
    decode_datagram,
)
from repro.obs import MetricsRegistry, render_prometheus
from repro.util import SeededRng
from repro.util.errors import ClusterError, ConfigError, StateError
from repro.util.ip import Prefix

from tests.conftest import make_detector

WORKERS = 2
GRANULARITY = 11  # EIAConfig default; recorded in the cluster manifest.


# -- shared scenario ----------------------------------------------------------


@pytest.fixture(scope="module")
def cluster_case(eia_plan, target_prefix):
    """One scan-confined trace plus its serial reference alert stream."""
    router = ShardRouter(WORKERS, GRANULARITY)
    rng = SeededRng(31337, "cluster-tests")
    records = []
    legal = Dagflow(
        "legal",
        target_prefix=target_prefix,
        udp_port=9000,
        source_blocks=eia_plan[0],
        rng=rng.fork("legal"),
    )
    records += [
        lr.record.with_key(input_if=0)
        for lr in legal.replay(synthesize_trace(400, rng=rng.fork("t")))
    ]
    # Confine every suspect flow to shard 0: spoofed sources drawn only
    # from foreign blocks whose whole /11-or-longer prefix hashes there.
    foreign = [
        block
        for peer, blocks in eia_plan.items()
        if peer != 2
        for block in blocks
    ]
    confined = [
        block
        for block in foreign
        if router.shard_for_address(block.network) == 0
    ]
    assert confined, "the Table 3 plan must populate shard 0"
    attack = Dagflow(
        "attack",
        target_prefix=target_prefix,
        udp_port=9002,
        source_blocks=confined,
        rng=rng.fork("attack"),
    )
    records += [
        lr.record.with_key(input_if=2)
        for lr in attack.replay(generate_attack("slammer", rng=rng.fork("a")))
    ]
    records.sort(key=lambda r: (r.first, r.key.src_addr, r.key.dst_addr))

    serial = make_detector(eia_plan, target_prefix, n_train=800)
    serial.process_all(records)
    serial_alerts = canonical_alerts(serial.alert_sink.alerts)
    assert serial_alerts, "the attack must actually raise alerts"

    seed = make_detector(eia_plan, target_prefix, n_train=800)
    return {
        "records": records,
        "serial_alerts": serial_alerts,
        "seed": seed,
    }


@pytest.fixture
def state_dir(tmp_path, cluster_case):
    path = tmp_path / "state"
    seed_cluster_state(cluster_case["seed"], str(path), workers=WORKERS)
    return str(path)


def _cluster_config(state_dir, **overrides):
    defaults = dict(
        state_dir=state_dir,
        workers=WORKERS,
        port=0,
        http_port=0,
        idle_exit_s=1.0,
        checkpoint_every=4,
        poll_interval_s=0.2,
        drain_timeout_s=20.0,
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


async def _drive(supervisor, records, *, kill_shard=None):
    """Run the cluster over ``records``, optionally SIGKILLing a worker
    halfway through the send."""
    task = asyncio.ensure_future(supervisor.run())
    await asyncio.wait_for(supervisor.wait_started(), 60)
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    datagrams = list(datagrams_for(records, sys_uptime=0, unix_secs=0))
    half = len(datagrams) // 2
    try:
        for index, datagram in enumerate(datagrams):
            if kill_shard is not None and index == half:
                # Let the worker commit at least one checkpointed batch,
                # then kill it dead (no graceful drain).
                await asyncio.sleep(0.5)
                pid = supervisor.worker_pid(kill_shard)
                assert pid is not None
                os.kill(pid, signal.SIGKILL)
                await asyncio.sleep(1.0)
            sock.sendto(datagram, supervisor.address)
            if (index + 1) % 8 == 0:
                await asyncio.sleep(0)
    finally:
        sock.close()
    return await asyncio.wait_for(task, 120)


# -- persistence: per-worker checkpoints and the manifest ---------------------


class TestClusterPersistence:
    def test_worker_checkpoint_naming(self, tmp_path):
        path = worker_checkpoint_path(str(tmp_path), 3, 16)
        assert path.name == "worker-03-of-16.json"
        assert path.parent == tmp_path

    def test_worker_checkpoint_bounds(self, tmp_path):
        with pytest.raises(StateError):
            worker_checkpoint_path(str(tmp_path), 2, 2)
        with pytest.raises(StateError):
            worker_checkpoint_path(str(tmp_path), -1, 2)
        with pytest.raises(StateError):
            worker_checkpoint_path(str(tmp_path), 0, 0)

    def test_manifest_roundtrip(self, tmp_path):
        save_cluster_manifest(str(tmp_path), workers=4, granularity=11)
        manifest = load_cluster_manifest(str(tmp_path))
        assert manifest == {"format": 1, "workers": 4, "granularity": 11}

    def test_manifest_missing_is_none(self, tmp_path):
        assert load_cluster_manifest(str(tmp_path)) is None

    def test_manifest_malformed_raises(self, tmp_path):
        (tmp_path / "cluster.json").write_text("not json")
        with pytest.raises(StateError):
            load_cluster_manifest(str(tmp_path))

    def test_seed_writes_every_worker(self, state_dir):
        manifest = load_cluster_manifest(state_dir)
        assert manifest is not None
        assert manifest["workers"] == WORKERS
        assert manifest["granularity"] == GRANULARITY
        for worker in range(WORKERS):
            assert worker_checkpoint_path(
                state_dir, worker, WORKERS
            ).exists()


# -- the source-block router --------------------------------------------------


class TestShardRouter:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigError):
            ShardRouter(0, 11)
        with pytest.raises(ConfigError):
            ShardRouter(4, 40)

    @given(
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100)
    def test_assignment_is_deterministic_and_in_range(self, shards, addr):
        router = ShardRouter(shards, 11)
        shard = router.shard_for_address(addr)
        assert 0 <= shard < shards
        assert router.shard_for_address(addr) == shard
        assert ShardRouter(shards, 11).shard_for_address(addr) == shard

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100)
    def test_same_source_block_lands_on_same_shard(self, addr):
        router = ShardRouter(8, 11)
        block = Prefix.from_address(addr, 11)
        # Every address of the covering /11 routes identically.
        probes = [block.network, block.last_address(), addr]
        assert len({router.shard_for_address(a) for a in probes}) == 1

    def test_partition_is_an_ordered_permutation(self):
        router = ShardRouter(4, 11)
        records = [
            FlowRecord(
                key=FlowKey(
                    src_addr=(i * 0x01234567) & 0xFFFFFFFF, dst_addr=0xC6120001,
                    protocol=6, src_port=1234, dst_port=80, input_if=0,
                ),
                packets=3, octets=1200, first=0, last=40,
            )
            for i in range(64)
        ]
        buckets = router.partition(records)
        assert len(buckets) == 4
        flat = [index for bucket in buckets for index in bucket]
        assert sorted(flat) == list(range(64))
        for shard, bucket in enumerate(buckets):
            assert bucket == sorted(bucket)
            for index in bucket:
                assert router.shard_for(records[index]) == shard

    def test_spreads_distinct_blocks(self):
        router = ShardRouter(4, 11)
        # 64 distinct /11 blocks should not all hash to one shard.
        shards = {
            router.shard_for_address(block << 21) for block in range(64)
        }
        assert len(shards) > 1


# -- the flow director --------------------------------------------------------


class TestFlowDirector:
    def _director(self, shards=2):
        sent = []
        router = ShardRouter(shards, GRANULARITY)
        director = FlowDirector(
            router,
            send=lambda data, addr: sent.append((data, addr)),
            registry=MetricsRegistry(),
        )
        for shard in range(shards):
            director.set_target(shard, ("127.0.0.1", 10_000 + shard))
        return director, router, sent

    def test_routes_by_source_block(self, cluster_case):
        director, router, sent = self._director()
        records = cluster_case["records"]
        for datagram in datagrams_for(records, sys_uptime=0, unix_secs=0):
            director.route_datagram(datagram)
        stats = director.stats()
        assert stats.records_routed == len(records)
        assert stats.datagrams_invalid == 0
        # Every re-framed datagram holds only records of its target's
        # shard, with the slice bytes preserved verbatim.
        per_shard = [0] * 2
        for data, (_host, port) in sent:
            shard = port - 10_000
            _header, decoded = decode_datagram(data)
            for record in decoded:
                assert router.shard_for_address(record.key.src_addr) == shard
            per_shard[shard] += len(decoded)
        assert tuple(per_shard) == stats.per_shard_routed

    def test_sequence_numbers_are_gapless_per_shard(self, cluster_case):
        director, _router, sent = self._director()
        for datagram in datagrams_for(
            cluster_case["records"], sys_uptime=0, unix_secs=0
        ):
            director.route_datagram(datagram)
        expected = {}
        for data, (_host, port) in sent:
            header, decoded = decode_datagram(data)
            assert header.flow_sequence == expected.get(port, 0)
            expected[port] = header.flow_sequence + len(decoded)

    def test_invalid_datagrams_counted_not_routed(self):
        director, _router, sent = self._director()
        assert director.route_datagram(b"short") == 0
        assert director.route_datagram(b"\x00\x01" + b"\x00" * 46) == 0
        # Right version, wrong length for its record count.
        bad = b"\x00\x05\x00\x02" + b"\x00" * (HEADER_LEN - 4 + RECORD_LEN)
        assert director.route_datagram(bad) == 0
        stats = director.stats()
        assert stats.datagrams == 3
        assert stats.datagrams_invalid == 3
        assert stats.records_routed == 0
        assert sent == []

    def test_pause_replay_resume(self, cluster_case):
        director, router, sent = self._director()
        records = cluster_case["records"]
        shard0 = [
            r for r in records
            if router.shard_for_address(r.key.src_addr) == 0
        ]
        director.pause(0)
        for datagram in datagrams_for(records, sys_uptime=0, unix_secs=0):
            director.route_datagram(datagram)
        # Nothing went to shard 0, but its log and cursor advanced.
        assert all(port != 10_000 for _data, (_h, port) in sent)
        assert director.routed_to(0) == len(shard0)
        sent.clear()
        replayed = director.replay(0, 0)
        assert replayed == len(shard0)
        director.resume(0)
        replayed_records = []
        for data, (_host, port) in sent:
            assert port == 10_000
            replayed_records.extend(decode_datagram(data)[1])
        assert [r.key for r in replayed_records] == [r.key for r in shard0]

    def test_replay_detects_inconsistent_cursor(self, cluster_case):
        director, _router, _sent = self._director()
        for datagram in datagrams_for(
            cluster_case["records"], sys_uptime=0, unix_secs=0
        ):
            director.route_datagram(datagram)
        with pytest.raises(ClusterError):
            director.replay(0, director.routed_to(0) + 1)

    def test_unwired_shard_is_an_error(self, cluster_case):
        sent = []
        director = FlowDirector(
            ShardRouter(2, GRANULARITY),
            send=lambda data, addr: sent.append(data),
            registry=MetricsRegistry(),
        )
        datagram = next(
            iter(
                datagrams_for(
                    cluster_case["records"], sys_uptime=0, unix_secs=0
                )
            )
        )
        with pytest.raises(ClusterError):
            director.route_datagram(datagram)


# -- federation ---------------------------------------------------------------


class TestFederation:
    def test_counters_gain_worker_label(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("x_total", "x.", ("kind",)).labels(kind="k").inc(3)
        b.counter("x_total", "x.", ("kind",)).labels(kind="k").inc(5)
        merged = federate({"0": a, "1": b})
        text = render_prometheus(merged)
        assert 'x_total{kind="k",worker="0"} 3' in text
        assert 'x_total{kind="k",worker="1"} 5' in text

    def test_histograms_merge_with_buckets(self):
        a = MetricsRegistry()
        hist = a.histogram("lat_s", "Latency.", (), (0.1, 1.0))
        hist.observe(0.05)
        hist.observe(5.0)
        merged = federate({"director": a})
        text = render_prometheus(merged)
        assert 'lat_s_count{worker="director"} 2' in text
        assert 'lat_s_bucket{worker="director",le="0.1"} 1' in text

    def test_worker_labelled_source_relabels_to_exported_worker(self):
        a = MetricsRegistry()
        a.counter("routed_total", "r.", ("worker",)).labels(worker="0").inc(2)
        merged = federate({"director": a})
        text = render_prometheus(merged)
        assert (
            'routed_total{exported_worker="0",worker="director"} 2' in text
        )

    def test_sources_are_copied_not_aliased(self):
        a = MetricsRegistry()
        counter = a.counter("y_total", "y.")
        counter.inc()
        merged = federate({"0": a})
        counter.inc()
        assert 'y_total{worker="0"} 1' in render_prometheus(merged)

    def test_canonical_alerts_renumber_deterministically(self, cluster_case):
        alerts = cluster_case["serial_alerts"]
        shuffled = list(reversed(alerts))
        again = canonical_alerts(shuffled)
        assert [a.to_xml() for a in again] == [a.to_xml() for a in alerts]
        assert [a.ident for a in again] == [
            f"infilter-{i:08d}" for i in range(len(alerts))
        ]


# -- supervisor composition guard rails ---------------------------------------


class TestClusterConfigErrors:
    def test_unseeded_state_dir(self, tmp_path):
        with pytest.raises(ConfigError, match="no cluster manifest"):
            ClusterSupervisor(
                _cluster_config(str(tmp_path)), registry=MetricsRegistry()
            )

    def test_worker_composition_mismatch_names_both(self, state_dir):
        with pytest.raises(ConfigError) as error:
            ClusterSupervisor(
                _cluster_config(state_dir, workers=3),
                registry=MetricsRegistry(),
            )
        message = str(error.value)
        assert f"{WORKERS} workers" in message
        assert "--workers 3" in message

    def test_missing_worker_checkpoint(self, state_dir):
        worker_checkpoint_path(state_dir, 1, WORKERS).unlink()
        with pytest.raises(ConfigError, match="worker 1"):
            ClusterSupervisor(
                _cluster_config(state_dir), registry=MetricsRegistry()
            )

    def test_config_validation(self, tmp_path):
        with pytest.raises(ConfigError):
            ClusterConfig(state_dir=str(tmp_path), workers=0)
        with pytest.raises(ConfigError):
            ClusterConfig(state_dir=str(tmp_path), restart_limit=-1)
        with pytest.raises(ConfigError):
            ClusterConfig(state_dir=str(tmp_path), drain_timeout_s=0.0)


# -- the tentpole: serial equivalence end to end ------------------------------


class TestClusterEquivalence:
    def test_cluster_matches_serial_process_all(self, cluster_case, state_dir):
        supervisor = ClusterSupervisor(
            _cluster_config(state_dir), registry=MetricsRegistry()
        )
        report = asyncio.run(_drive(supervisor, cluster_case["records"]))
        assert report.records_unaccounted == 0
        assert report.records_committed == len(cluster_case["records"])
        assert report.restarts == 0
        cluster_xml = [a.to_xml() for a in supervisor.merged_alerts()]
        serial_xml = [a.to_xml() for a in cluster_case["serial_alerts"]]
        assert cluster_xml == serial_xml

    def test_equivalence_survives_worker_kill_and_restart(
        self, cluster_case, state_dir
    ):
        supervisor = ClusterSupervisor(
            _cluster_config(state_dir), registry=MetricsRegistry()
        )
        report = asyncio.run(
            _drive(supervisor, cluster_case["records"], kill_shard=0)
        )
        assert report.restarts == 1
        assert report.records_unaccounted == 0
        assert report.records_replayed > 0
        cluster_xml = [a.to_xml() for a in supervisor.merged_alerts()]
        serial_xml = [a.to_xml() for a in cluster_case["serial_alerts"]]
        assert cluster_xml == serial_xml

    def test_federated_view_after_run(self, cluster_case, state_dir):
        registry = MetricsRegistry()
        supervisor = ClusterSupervisor(
            _cluster_config(state_dir), registry=registry
        )
        report = asyncio.run(_drive(supervisor, cluster_case["records"]))
        assert report.records_unaccounted == 0
        health = supervisor.health()
        assert health["workers"] == WORKERS
        assert sum(health["worker_cursors"]) == report.records_committed
        text = render_prometheus(supervisor.federated_registry())
        # The director's own metrics carry the director label...
        assert 'infilter_cluster_datagrams_total{outcome="routed"' in text
        assert 'worker="director"' in text
        # ...and both workers' scraped registries appear under theirs.
        assert 'worker="0"' in text
        assert 'worker="1"' in text


# -- the CLI surface ----------------------------------------------------------


class TestClusterCli:
    def test_workers_needs_state_dir(self, capsys):
        assert main(["serve", "--workers", "2"]) == 2
        assert "--state-dir" in capsys.readouterr().err

    def test_save_state_rejected(self, tmp_path, capsys):
        code = main(
            [
                "serve",
                "--workers", "2",
                "--state-dir", str(tmp_path / "s"),
                "--save-state", str(tmp_path / "ckpt.json"),
            ]
        )
        assert code == 2
        assert "--save-state does not apply" in capsys.readouterr().err

    def test_resume_needs_seeded_dir(self, tmp_path, capsys):
        code = main(
            [
                "serve",
                "--workers", "2",
                "--state-dir", str(tmp_path / "s"),
                "--resume",
            ]
        )
        assert code == 2
        assert "no cluster manifest" in capsys.readouterr().err

    def test_composition_mismatch_is_config_error(self, state_dir, capsys):
        code = main(
            ["serve", "--workers", "3", "--state-dir", state_dir]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "checkpoint composition mismatch" in err
        assert f"{WORKERS} workers" in err
        assert "--workers 3" in err

    def test_load_state_conflicts_with_seeded_dir(self, state_dir, capsys):
        checkpoint = worker_checkpoint_path(state_dir, 0, WORKERS)
        code = main(
            [
                "serve",
                "--workers", str(WORKERS),
                "--state-dir", state_dir,
                "--load-state", str(checkpoint),
            ]
        )
        assert code == 2
        assert "already-seeded" in capsys.readouterr().err
