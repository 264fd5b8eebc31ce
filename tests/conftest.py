"""Shared fixtures: deterministic RNGs, a small topology, a trained detector."""

from __future__ import annotations

import pytest

from repro.core import EnhancedInFilter, PipelineConfig
from repro.core.eia import EIACheck, EIAVerdict
from repro.core.pipeline import Decision, Verdict
from repro.flowgen import Dagflow, SubBlockSpace, eia_allocation, synthesize_trace
from repro.obs import MetricsRegistry
from repro.routing import TopologyParams, generate_internet
from repro.serve import CommitWorker, ServeConfig
from repro.util import Prefix, SeededRng


@pytest.fixture
def rng() -> SeededRng:
    return SeededRng(12345, "tests")


@pytest.fixture(scope="session")
def small_topology_params() -> TopologyParams:
    return TopologyParams(n_tier1=4, n_tier2=10, n_stub=24)


@pytest.fixture(scope="session")
def small_topology(small_topology_params):
    return generate_internet(
        small_topology_params, rng=SeededRng(777, "topology")
    )


@pytest.fixture(scope="session")
def subblock_space() -> SubBlockSpace:
    return SubBlockSpace()


@pytest.fixture(scope="session")
def target_prefix() -> Prefix:
    return Prefix.parse("198.18.0.0/16")


@pytest.fixture(scope="session")
def eia_plan(subblock_space):
    return eia_allocation(subblock_space)


@pytest.fixture(scope="session")
def trained_detector(eia_plan, target_prefix):
    """A session-scoped trained EI detector over the Table 3 plan.

    Tests that mutate detector state must NOT use this fixture; it exists
    for read-mostly assessments (training is the expensive part).
    """
    rng = SeededRng(424242, "trained")
    detector = EnhancedInFilter(PipelineConfig(), rng=rng.fork("det"))
    for peer, blocks in eia_plan.items():
        detector.preload_eia(peer, blocks)
    dagflow = Dagflow(
        "trainer",
        target_prefix=target_prefix,
        udp_port=9000,
        source_blocks=eia_plan[0],
        rng=rng.fork("df"),
    )
    trace = synthesize_trace(2500, rng=rng.fork("trace"))
    detector.train(
        [lr.record.with_key(input_if=0) for lr in dagflow.replay(trace)]
    )
    return detector


def make_detector(eia_plan, target_prefix, *, seed=5150, config=None, n_train=1500):
    """Factory for tests that need a private, mutable detector."""
    rng = SeededRng(seed, "factory")
    detector = EnhancedInFilter(
        config if config is not None else PipelineConfig(), rng=rng.fork("det")
    )
    for peer, blocks in eia_plan.items():
        detector.preload_eia(peer, blocks)
    dagflow = Dagflow(
        "trainer",
        target_prefix=target_prefix,
        udp_port=9000,
        source_blocks=eia_plan[0],
        rng=rng.fork("df"),
    )
    trace = synthesize_trace(n_train, rng=rng.fork("trace"))
    detector.train(
        [lr.record.with_key(input_if=0) for lr in dagflow.replay(trace)]
    )
    return detector


def offline_worker(detector, *, cursor_base=0, writer=None, **config):
    """A queue-less commit worker, as ``infilter detect`` builds it;
    ``config`` is :class:`ServeConfig`'s fields."""
    return CommitWorker(
        detector, None, ServeConfig(**config), registry=MetricsRegistry(),
        cursor_base=cursor_base, writer=writer,
    )


def legal_decision(latency_s):
    """A legal-at-EIA decision that took ``latency_s``: what the
    ``PipelineStats`` latency tests feed ``note``."""
    return Decision(
        verdict=Verdict.LEGAL,
        stage="eia",
        eia=EIACheck(
            verdict=EIAVerdict.LEGAL, observed_peer=0, expected_peer=0
        ),
        latency_s=latency_s,
    )
