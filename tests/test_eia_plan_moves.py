"""The EIA plan and its moves against the single owner map they replace.

``BasicInFilter`` keeps two maps: the plan (block -> the peer the
training phase named, Section 5.1.3(a)) and the moves (block -> the
peer the learning rule moved it to, Section 5.2, only where that is not
the planned one).  The effective owner is the move, else the plan.  The
walk here replays every operation into one plain dict — the last insert
owns the block, which is what a single owner map did — and asserts
after each step that the effective sets, the owner answers, the moves
and a save -> load -> save agree with it.  Then a route that changes
back: the checkpoint head returns to the bytes it had before the move.
"""

import json
from typing import Dict, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import EIAConfig
from repro.core.eia import BasicInFilter
from repro.core.persistence import CheckpointWriter
from repro.obs import MetricsRegistry
from repro.util.ip import Prefix

from tests.conftest import make_detector

_PEERS = (0, 1, 2, 3)

#: Blocks that nest and collide: /8s, /11s under them, a /16 under those.
_BLOCKS = [
    Prefix.parse(text)
    for text in (
        "10.0.0.0/8", "10.32.0.0/11", "10.64.0.0/11", "10.64.0.0/16",
        "11.0.0.0/8", "11.96.0.0/11", "12.0.0.0/11",
    )
]

blocks = st.sampled_from(_BLOCKS)
peers = st.sampled_from(_PEERS)
_steps = st.one_of(
    st.tuples(st.just("preload"), peers, blocks),
    st.tuples(st.just("absorb"), peers, blocks),
    # The block's route changes back: absorbed at its planned peer.
    st.tuples(st.just("back"), blocks),
    st.tuples(st.just("restore")),
)


def _new_filter() -> BasicInFilter:
    return BasicInFilter(EIAConfig(granularity=11), registry=MetricsRegistry())


def _canonical(state) -> str:
    return json.dumps(state, sort_keys=True, separators=(",", ":"))


def _expected(owners: Dict[Prefix, int], address: int) -> Optional[int]:
    best: Optional[Prefix] = None
    for prefix in owners:
        if prefix.contains(address) and (best is None or prefix.length > best.length):
            best = prefix
    return owners[best] if best is not None else None


def _assert_agrees(
    infilter: BasicInFilter, owners: Dict[Prefix, int], plan: Dict[Prefix, int]
) -> None:
    for peer in set(infilter.peers()) | set(owners.values()):
        assert set(infilter.eia_set(peer).prefixes()) == {
            prefix for prefix, owner in owners.items() if owner == peer
        }
    for prefix in _BLOCKS:
        for address in (prefix.network, prefix.network + prefix.size() - 1):
            assert infilter.expected_peer_for(address) == _expected(owners, address)
    assert infilter.plan() == plan
    assert infilter.moves() == {
        prefix: owner for prefix, owner in owners.items() if plan.get(prefix) != owner
    }


@settings(max_examples=150, deadline=None)
@given(steps=st.lists(_steps, max_size=25))
def test_plan_and_moves_replay_a_single_owner_map(steps: List[Tuple]) -> None:
    infilter = _new_filter()
    owners: Dict[Prefix, int] = {}
    plan: Dict[Prefix, int] = {}
    for action, *args in steps:
        if action == "preload":
            peer, block = args
            infilter.preload(peer, [block])
            owners[block] = plan[block] = peer
        elif action == "absorb":
            peer, block = args
            infilter.apply_absorption(peer, block)
            owners[block] = peer
        elif action == "back":
            (block,) = args
            if block in plan:
                infilter.apply_absorption(plan[block], block)
                owners[block] = plan[block]
        else:
            text = _canonical(infilter.state_dict())
            infilter = _new_filter()
            infilter.load_state(json.loads(text))
            assert _canonical(infilter.state_dict()) == text
        _assert_agrees(infilter, owners, plan)
    restored = _new_filter()
    restored.load_state(json.loads(_canonical(infilter.state_dict())))
    _assert_agrees(restored, owners, plan)
    assert _canonical(restored.state_dict()) == _canonical(infilter.state_dict())


def test_a_route_that_changes_back_leaves_the_head_as_it_was(
    eia_plan, target_prefix, tmp_path
):
    """The learning rule moves a planned block to peer 4 and, when the
    route changes back, to peer 2 again: the moves are empty, and the
    head is byte-identical to the head before the move.  The base (the
    plan) is not rewritten by either."""
    detector = make_detector(eia_plan, target_prefix, n_train=300)
    infilter = detector.infilter
    block = eia_plan[2][5]
    address = block.nth_address(9)
    threshold = detector.config.eia.learning_threshold
    path = tmp_path / "ckpt.json"
    writer = CheckpointWriter(path, registry=MetricsRegistry())
    writer.save(detector, cursor=0)
    before = path.read_bytes()
    (base,) = tmp_path.glob("ckpt.json.base-*")
    base_stat = (base.stat().st_ino, base.stat().st_mtime_ns)

    for _ in range(threshold):
        infilter.learn(4, address)
    assert infilter.moves() == {block: 4}
    assert infilter.expected_peer_for(address) == 4
    writer.save(detector, cursor=0)
    moved = json.loads(path.read_text())["components"]["eia"]
    assert moved == {"moves": {str(block): 4}, "pending": []}

    for _ in range(threshold):
        infilter.learn(2, address)
    assert infilter.moves() == {}
    assert infilter.expected_peer_for(address) == 2
    writer.save(detector, cursor=0)
    assert path.read_bytes() == before
    (base,) = tmp_path.glob("ckpt.json.base-*")
    assert (base.stat().st_ino, base.stat().st_mtime_ns) == base_stat
