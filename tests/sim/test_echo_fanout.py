"""The rotor's echo fan-out is held once per round, not once per node.

Every correct node echoes every candidate id: Θ(n) payloads per node per
round.  The quorum plane hands all nodes with the same prior state one
shared payload tuple, and the columnar plane aliases only the canonical
tuple of each distinct batch — so the fan-out costs one tuple per round
and plane memory grows with the number of distinct batches, never with
the number of callers.
"""

import tracemalloc
from collections import defaultdict

import pytest

from repro.core.consensus import EarlyConsensus
from repro.core.parallel_consensus import ParallelConsensus
from repro.sim.network import SyncNetwork
from repro.sim.node import NodeApi


@pytest.fixture
def fanouts(monkeypatch):
    """(round, kind, instance) -> every payloads object broadcast."""
    seen = defaultdict(list)
    real = NodeApi.broadcast_many

    def spy(self, kind, payloads, instance=None):
        seen[(self.round, kind, instance)].append(payloads)
        real(self, kind, payloads, instance)

    monkeypatch.setattr(NodeApi, "broadcast_many", spy)
    return seen


def _assert_one_tuple_per_fanout(fanouts, senders):
    assert fanouts
    for key, payloads in fanouts.items():
        assert len(payloads) == senders, key
        first = payloads[0]
        assert type(first) is tuple, key
        assert all(p is first for p in payloads), key


def _assert_aliases_bounded(net):
    plane = net._plane
    assert plane._batches
    assert len(plane._batch_aliases) <= len(plane._batches)


def test_consensus_echoes_share_one_tuple_per_round(fanouts):
    n = 300
    net = SyncNetwork(seed=2)
    for node_id in range(1, n + 1):
        net.add_correct(node_id, EarlyConsensus(node_id % 2))
    net.run(100)
    assert len(set(net.outputs().values())) == 1
    # Round 2 echoes the announcers; the embedded rotor's first step
    # (round 6) re-echoes every id, a tuple equal to round 2's.
    assert {key[0] for key in fanouts} == {2, 6}
    _assert_one_tuple_per_fanout(fanouts, n)
    _assert_aliases_bounded(net)


def test_parallel_consensus_echoes_share_one_tuple_per_round(fanouts):
    n = 60
    net = SyncNetwork(seed=3)
    for node_id in range(1, n + 1):
        inputs = {f"id{k}": (node_id + k) % 2 for k in range(3)}
        net.add_correct(node_id, ParallelConsensus(inputs))
    net.run(400)
    assert len(set(net.outputs().values())) == 1
    _assert_one_tuple_per_fanout(fanouts, n)
    _assert_aliases_bounded(net)


def _traced_peak(n: int) -> int:
    net = SyncNetwork(seed=1)
    for node_id in range(1, n + 1):
        net.add_correct(node_id, EarlyConsensus(node_id % 2))
    tracemalloc.start()
    try:
        net.run(100)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_consensus_peak_memory_grows_linearly():
    # Doubling n doubles the id-sized state; a fan-out pinned once per
    # caller would quadruple the peak.
    small = _traced_peak(1000)
    large = _traced_peak(2000)
    assert large <= 2.5 * small, (
        f"traced peak {large / small:.2f}x from n=1000 to n=2000"
    )
