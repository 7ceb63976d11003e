"""``materialized_messages`` counts every Message the columnar plane builds.

Each test swaps :mod:`repro.sim.columnar`'s ``Message`` for a counting
factory, so every construction site in the plane — whole-round
materialization and the per-sender / per-instance row builders alike —
is tallied independently of the plane's own counter.
"""

import pytest

import repro.sim.columnar as columnar
from repro.core.consensus import EarlyConsensus
from repro.core.parallel_consensus import ParallelConsensus
from repro.sim.lossy import LossyNetwork
from repro.sim.network import SyncNetwork
from repro.sim.rng import make_rng, sparse_ids


@pytest.fixture
def built(monkeypatch):
    """A one-element list holding the number of Messages constructed."""
    count = [0]
    real = columnar.Message

    def counting_message(*args, **kwargs):
        count[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(columnar, "Message", counting_message)
    return count


def test_parallel_consensus_counts_row_builders(built):
    # 24 instances per node: the quorum-tally plane asks for per-instance
    # and per-sender rows, which used to go uncounted.
    net = SyncNetwork(seed=1)
    for index in range(200):
        inputs = {f"id{k:02d}": k % 2 for k in range(24)}
        net.add_correct(1000 + index, ParallelConsensus(inputs))
    net.run(400)
    assert len(set(net.outputs().values())) == 1
    assert built[0] > 0
    assert net.metrics.materialized_messages == built[0]
    assert net._plane.messages_materialized == built[0]


def test_lossy_run_counts_filtered_materialization(built):
    net = LossyNetwork(0.2, seed=3)
    for index, node_id in enumerate(sparse_ids(7, make_rng(3))):
        net.add_correct(node_id, EarlyConsensus(index % 2))
    net.run(80)
    assert built[0] > 0
    assert net.metrics.materialized_messages == built[0]
