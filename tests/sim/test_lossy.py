"""The lossy-network ablation instrument."""

import pytest

from repro.adversary import QuorumSplitterStrategy
from repro.core.consensus import EarlyConsensus
from repro.core.reliable_broadcast import ReliableBroadcast
from repro.errors import SimulationError
from repro.sim.lossy import LossyNetwork
from repro.sim.network import SyncNetwork
from repro.sim.rng import make_rng, sparse_ids


def consensus_run(drop_rate, seed=0, max_rounds=60):
    rng = make_rng(seed)
    ids = sparse_ids(7, rng)
    net = LossyNetwork(drop_rate, seed=seed)
    for index, node_id in enumerate(ids):
        net.add_correct(node_id, EarlyConsensus(index % 2))
    net.run(max_rounds)
    return net


class TestLossyNetwork:
    def test_validates_rate(self):
        with pytest.raises(ValueError):
            LossyNetwork(1.5)
        with pytest.raises(ValueError):
            LossyNetwork(-0.1)

    def test_zero_rate_is_exactly_sync_network(self):
        lossless = consensus_run(0.0)
        rng = make_rng(0)
        ids = sparse_ids(7, rng)
        plain = SyncNetwork(seed=0)
        for index, node_id in enumerate(ids):
            plain.add_correct(node_id, EarlyConsensus(index % 2))
        plain.run(60)
        assert lossless.outputs() == plain.outputs()
        assert lossless.round == plain.round
        assert (
            lossless.metrics.deliveries_total
            == plain.metrics.deliveries_total
        )
        assert lossless.dropped == 0

    def test_drops_are_counted_and_seeded(self):
        a = consensus_run(0.1, seed=3, max_rounds=25)
        b = consensus_run(0.1, seed=3, max_rounds=25)
        assert a.dropped == b.dropped > 0

    def test_full_loss_delivers_nothing(self):
        rng = make_rng(1)
        ids = sparse_ids(4, rng)
        net = LossyNetwork(1.0, seed=1)
        for node_id in ids:
            net.add_correct(node_id, ReliableBroadcast(ids[0], "m"))
        net.run(6, until_all_halted=False)
        assert net.metrics.deliveries_total == 0

    def test_heavy_loss_erodes_consensus(self):
        """The synchrony assumption is load-bearing: at 40% loss the
        protocol misbehaves (non-termination or disagreement) on most
        seeds."""
        broken = 0
        for seed in range(6):
            try:
                net = consensus_run(0.4, seed=seed, max_rounds=60)
                outputs = net.outputs()
                if len(set(outputs.values())) != 1 or len(outputs) != 7:
                    broken += 1
            except SimulationError:
                broken += 1
        assert broken >= 3

    def test_light_loss_sometimes_survives(self):
        """Sanity for the instrument itself: 1% loss is survivable at
        least sometimes — erosion is gradual, not a cliff."""
        survived = 0
        for seed in range(6):
            try:
                net = consensus_run(0.01, seed=seed, max_rounds=80)
                if len(set(net.outputs().values())) == 1:
                    survived += 1
            except SimulationError:
                pass
        assert survived >= 3


class TestLossLotteryGolden:
    """The loss lottery, pinned: one draw per (recipient, message), with
    recipients in registration order and messages in staging order,
    then the recipient's direct extras.  The figures were recorded
    before the lossy network moved onto the columnar plane's delivery
    filter; any change to the draw order shows up here."""

    # (drop_rate, seed) -> (last round, dropped, deliveries, outputs);
    # 80-round budget, as in the synchrony-erosion ablation.
    GOLDEN = {
        (0.05, 1): (12, 48, 897, (0, 0, 0, 0, 0, 0, 0)),
        (0.1, 3): (12, 119, 868, (0, 0, 0, 0, 0, 0, 0)),
        (0.2, 2): (17, 230, 848, (0, 0, 0, 0, 0, 0, 0)),
        (0.4, 0): (17, 342, 526, (0, 1, 0, 1, 1, 1, 1)),
        (0.6, 5): (17, 341, 233, (0, 1, 0, 1, 0, 1, 0)),
    }

    @pytest.mark.parametrize("rate, seed", sorted(GOLDEN))
    def test_all_correct_runs_match_recording(self, rate, seed):
        net = consensus_run(rate, seed=seed, max_rounds=80)
        outputs = tuple(out for _, out in sorted(net.outputs().items()))
        assert (
            net.round,
            net.dropped,
            net.metrics.deliveries_total,
            outputs,
        ) == self.GOLDEN[(rate, seed)]

    @pytest.mark.parametrize(
        "rate, seed, expected",
        [
            (0.1, 1, (22, 117, 1024, 229, 1)),
            (0.2, 3, (27, 266, 987, 275, None)),
        ],
    )
    @pytest.mark.parametrize("rushing", [False, True])
    def test_splitter_runs_match_recording(
        self, rate, seed, expected, rushing
    ):
        # Two quorum splitters send per-recipient directs, so the draws
        # also cover the direct extras behind the shared broadcasts.
        ids = sparse_ids(7, make_rng(seed))
        net = LossyNetwork(rate, seed=seed, rushing=rushing)
        for index, node_id in enumerate(ids[:5]):
            net.add_correct(node_id, EarlyConsensus(index % 2))
        for node_id in ids[5:]:
            net.add_byzantine(
                node_id, QuorumSplitterStrategy(EarlyConsensus(0))
            )
        net.run(80)
        values = set(net.outputs().values())
        agreed = values.pop() if len(values) == 1 else None
        assert (
            net.round,
            net.dropped,
            net.metrics.deliveries_total,
            net.metrics.sends_total,
            agreed,
        ) == expected


class TestColumnarAutoFallback:
    """LossyNetwork once fell back off the columnar plane; it now rides
    it, and a lossless run must still match a plain SyncNetwork."""

    def test_object_path_matches_columnar_results(self):
        # Same seed, same protocols: the delivery filter is an
        # implementation detail, not a behaviour change.
        lossy = consensus_run(0.0, seed=4)
        rng = make_rng(4)
        ids = sparse_ids(7, rng)
        columnar = SyncNetwork(seed=4)
        for index, node_id in enumerate(ids):
            columnar.add_correct(node_id, EarlyConsensus(index % 2))
        columnar.run(60)
        assert columnar._plane is not None
        assert lossy._plane is not None
        assert lossy.outputs() == columnar.outputs()
        assert (
            lossy.metrics.deliveries_total
            == columnar.metrics.deliveries_total
        )


class TestLossyOnThePlane:
    def test_lossy_rides_the_columnar_plane(self):
        net = LossyNetwork(0.1, seed=5)
        events = []
        net.bus.subscribe(events.append, "plane-stats")
        for index, node_id in enumerate(sparse_ids(7, make_rng(5))):
            net.add_correct(node_id, EarlyConsensus(index % 2))
        net.run(80)
        assert [e.round for e in events] == list(range(1, net.round + 1))
        # The filter hands every recipient real message objects, built
        # once per round from the shared columns and counted.
        assert events[-1].materialized_messages > 0
        assert (
            net.metrics.materialized_messages
            == net._plane.messages_materialized
        )
        # Filtered recipients track their own contacts, never the pool.
        assert not any(s.contacts_shared for s in net._nodes.values())
