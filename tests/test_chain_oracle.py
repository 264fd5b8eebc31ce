"""The detection chain against an independent oracle.

``process`` and ``process_batch`` run one shared kernel, so "batch equals
serial" says nothing about the kernel itself.  Here every way of running
it — serial, batched at three sizes, with and without full NNS
speculation — is compared flow for flow with the memo-free transcription
of Figure 12 in :mod:`tests.reference_chain`, over the configurations
that steer the chain down each of its branches.
"""

from dataclasses import replace
from typing import Dict, List

import pytest

from repro.core import EIAConfig, OverloadConfig, PipelineConfig
from repro.netflow.records import FlowRecord

from tests.conftest import make_detector
from tests.reference_chain import Outcome, outcome_of, reference_chain
from tests.test_engine_equivalence import mixed_trace  # noqa: F401 - fixture

_SEED = 90210
_ABSORBING = EIAConfig(learning_threshold=3)

CONFIGS: Dict[str, PipelineConfig] = {
    "enhanced": PipelineConfig(eia=_ABSORBING),
    "basic": PipelineConfig(eia=_ABSORBING, enhanced=False),
    "overload": PipelineConfig(
        eia=_ABSORBING,
        overload=OverloadConfig(suspect_capacity_per_s=40.0, drop_fraction=0.5),
    ),
    "pass-unmodelled": PipelineConfig(
        eia=_ABSORBING, flag_unmodelled_classes=False
    ),
    "flag-unmodelled": PipelineConfig(
        eia=_ABSORBING, flag_unmodelled_classes=True
    ),
    "any-ensemble": PipelineConfig(
        eia=_ABSORBING,
        detectors=("infilter", "ttl_profile", "bogon"),
        ensemble_policy="any",
    ),
}

#: (verdict, stage) pairs each configuration must actually produce, so a
#: branch can never go quiet without the comparison noticing.
MUST_SEE = {
    "enhanced": {("legal", "eia"), ("benign", "nns"), ("attack", "nns")},
    "basic": {("legal", "eia"), ("attack", "eia")},
    "overload": {("benign", "overload"), ("attack", "overload"), ("benign", "nns")},
    "pass-unmodelled": {("benign", "nns")},
    "flag-unmodelled": {("attack", "nns")},
    "any-ensemble": {("attack", "ensemble"), ("attack", "nns")},
}


def _build(eia_plan, target_prefix, name: str):
    return make_detector(
        eia_plan, target_prefix, seed=_SEED, config=CONFIGS[name], n_train=900
    )


@pytest.fixture(scope="module")
def oracle_trace(mixed_trace) -> List[FlowRecord]:  # noqa: F811
    """The engine-equivalence mixed trace (mid-stream absorptions) plus
    two kinds of flow it lacks: a protocol class the model never saw
    (GRE) and benign-looking flows from bogon space."""
    donors = [r for r in mixed_trace if r.key.input_if == 0][:60]
    unmodelled = [
        replace(r.with_key(protocol=47, input_if=3), first=r.first + 1, last=r.last + 1)
        for r in donors[:30]
    ]
    bogon = [
        replace(
            r.with_key(src_addr=0x0A000000 + index, input_if=0),
            first=r.first + 2, last=r.last + 2,
        )
        for index, r in enumerate(donors[30:])
    ]
    records = list(mixed_trace) + unmodelled + bogon
    records.sort(key=lambda r: (r.first, r.key.src_addr, r.key.dst_addr))
    return records


@pytest.fixture(scope="module")
def oracle(eia_plan, target_prefix, oracle_trace):
    """Per configuration: the reference outcomes, and the assessments a
    perfect speculator would hand the commit stage (computed once, on a
    twin that never commits anything)."""
    cache: Dict[str, tuple] = {}

    def lookup(name: str):
        if name not in cache:
            expected = reference_chain(
                _build(eia_plan, target_prefix, name), oracle_trace
            )
            twin = _build(eia_plan, target_prefix, name)
            speculation = [twin.assess_memoised(r) for r in oracle_trace]
            cache[name] = (expected, speculation)
        return cache[name]

    return lookup


#: (batch size, speculate) per way of running the chain; size 0 is
#: serial ``process_all``, which takes no speculation.
RUNNERS = {
    "process_all": (0, False),
    **{
        f"batch{size}-{'speculated' if speculate else 'inline'}": (size, speculate)
        for size in (1, 97, 10_000)
        for speculate in (False, True)
    },
}


@pytest.mark.parametrize("runner", list(RUNNERS))
@pytest.mark.parametrize("name", list(CONFIGS))
def test_every_runner_matches_the_reference_chain(
    eia_plan, target_prefix, oracle_trace, oracle, name, runner
):
    batch_size, speculate = RUNNERS[runner]
    expected, speculation = oracle(name)
    assert MUST_SEE[name] <= {(verdict, stage) for verdict, stage, *_ in expected}
    if name == "enhanced":
        assert sum(absorbed for _v, _s, absorbed, *_ in expected) >= 2

    detector = _build(eia_plan, target_prefix, name)
    got: List[Outcome] = []
    if batch_size == 0:
        got = [outcome_of(d) for d in detector.process_all(oracle_trace)]
    else:
        for start in range(0, len(oracle_trace), batch_size):
            stop = start + batch_size
            result = detector.process_batch(
                oracle_trace[start:stop],
                speculation=speculation[start:stop] if speculate else None,
            )
            got.extend(outcome_of(d) for d in result.decisions)
    assert got == expected
