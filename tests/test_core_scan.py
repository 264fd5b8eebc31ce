"""Tests for Scan Analysis (network and host scan detection)."""

import pytest

from repro.core.config import ScanConfig
from repro.core.scan import ScanAnalyzer, ScanVerdict
from repro.util.errors import ConfigError


def analyzer(**overrides):
    defaults = dict(buffer_size=50, network_scan_threshold=5, host_scan_threshold=5)
    defaults.update(overrides)
    return ScanAnalyzer(ScanConfig(**defaults))


class TestConfig:
    def test_rejects_trivial_thresholds(self):
        with pytest.raises(ConfigError):
            ScanConfig(network_scan_threshold=1)
        with pytest.raises(ConfigError):
            ScanConfig(host_scan_threshold=0)

    def test_rejects_empty_buffer(self):
        with pytest.raises(ConfigError):
            ScanConfig(buffer_size=0)

    def test_paper_buffer_default(self):
        assert ScanConfig().buffer_size == 200


class TestNetworkScan:
    def test_fires_at_threshold_distinct_hosts(self):
        scan = analyzer()
        verdicts = [scan.observe(host, 1434) for host in range(5)]
        assert not any(v.is_scan for v in verdicts[:4])
        assert verdicts[4].is_scan
        assert verdicts[4].kind == ScanVerdict.NETWORK
        assert verdicts[4].count == 5

    def test_repeat_hosts_do_not_count_twice(self):
        scan = analyzer()
        for _ in range(10):
            verdict = scan.observe(42, 1434)
        assert not verdict.is_scan

    def test_distinct_ports_tracked_separately(self):
        scan = analyzer()
        for host in range(4):
            assert not scan.observe(host, 80).is_scan
        for host in range(4):
            assert not scan.observe(host, 443).is_scan


class TestHostScan:
    def test_fires_at_threshold_distinct_ports(self):
        scan = analyzer()
        verdicts = [scan.observe(7, port) for port in range(100, 105)]
        assert verdicts[4].is_scan
        assert verdicts[4].kind == ScanVerdict.HOST

    def test_counters_exposed(self):
        scan = analyzer()
        for port in range(100, 105):
            scan.observe(7, port)
        assert scan.host_scans_flagged == 1
        assert scan.network_scans_flagged == 0


class TestBuffer:
    def test_eviction_forgets_old_flows(self):
        scan = analyzer(buffer_size=4)
        # Four distinct hosts on port 1434, then flush the buffer with
        # unrelated flows; the next 1434 probe must NOT complete a scan.
        for host in range(4):
            scan.observe(host, 1434)
        for host in range(100, 104):
            scan.observe(host, 9999 - host)
        verdict = scan.observe(55, 1434)
        assert not verdict.is_scan

    def test_len_tracks_buffer(self):
        scan = analyzer(buffer_size=4)
        for index in range(10):
            scan.observe(index, 80 + index)
        assert len(scan) == 4

    def test_reset(self):
        scan = analyzer()
        for host in range(4):
            scan.observe(host, 1434)
        scan.reset()
        assert len(scan) == 0
        verdict = scan.observe(99, 1434)
        assert not verdict.is_scan


class TestMixedPatterns:
    def test_slammer_like_burst_detected(self):
        scan = analyzer(buffer_size=200, network_scan_threshold=8)
        hit = False
        for host in range(20):
            hit = hit or scan.observe(1000 + host, 1434).is_scan
        assert hit

    def test_idlescan_like_burst_detected(self):
        scan = analyzer(buffer_size=200, host_scan_threshold=8)
        hit = False
        for port in range(1, 30):
            hit = hit or scan.observe(77, port).is_scan
        assert hit

    def test_diffuse_traffic_not_flagged(self):
        scan = analyzer(buffer_size=200)
        for index in range(100):
            verdict = scan.observe(index, 2000 + index)
            assert not verdict.is_scan
