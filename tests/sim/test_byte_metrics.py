"""Byte accounting on the simulator (wire-codec-accurate)."""

import pytest

from repro.core.consensus import EarlyConsensus
from repro.sim.network import SyncNetwork


def run_consensus(measure_bytes):
    net = SyncNetwork(seed=0, measure_bytes=measure_bytes)
    for node_id in (11, 22, 33, 44):
        net.add_correct(node_id, EarlyConsensus(1))
    net.run(20)
    return net


class TestByteMetrics:
    def test_disabled_by_default(self):
        net = run_consensus(measure_bytes=False)
        assert net.metrics.bytes_total == 0

    def test_enabled_counts_real_frame_sizes(self):
        net = run_consensus(measure_bytes=True)
        assert net.metrics.bytes_total > 0
        # every counted kind has bytes, and per-kind sums to the total
        assert sum(net.metrics.bytes_by_kind.values()) == (
            net.metrics.bytes_total
        )
        # frames are at least the fixed JSON skeleton (~60 bytes)
        assert (
            net.metrics.bytes_total / net.metrics.sends_total > 50
        )

    def test_byte_count_deterministic(self):
        assert (
            run_consensus(True).metrics.bytes_total
            == run_consensus(True).metrics.bytes_total
        )

    def test_summary_includes_bytes_when_measured(self):
        summary = run_consensus(measure_bytes=True).metrics.summary()
        assert summary["bytes_total"] > 0
        assert summary["bytes_by_kind"]
        assert (
            sum(summary["bytes_by_kind"].values()) == summary["bytes_total"]
        )

    def test_summary_omits_bytes_when_not_measured(self):
        summary = run_consensus(measure_bytes=False).metrics.summary()
        assert "bytes_total" not in summary
        assert "bytes_by_kind" not in summary

    def test_unencodable_payload_falls_back_to_repr(self):
        from repro.sim.inbox import Inbox
        from repro.sim.node import NodeApi, Protocol

        class WeirdPayload(Protocol):
            def on_round(self, api: NodeApi, inbox: Inbox) -> None:
                api.broadcast("odd", object())  # not wire-encodable
                self.halt(api)

        net = SyncNetwork(seed=0, measure_bytes=True)
        net.add_correct(1, WeirdPayload())
        net.run(1, until_all_halted=False)
        assert net.metrics.bytes_total > 0

    def test_oversized_frame_falls_back_to_repr(self):
        from repro.net.wire import MAX_FRAME_BYTES
        from repro.sim.inbox import Inbox
        from repro.sim.node import NodeApi, Protocol

        huge = "x" * MAX_FRAME_BYTES

        class Oversized(Protocol):
            def on_round(self, api: NodeApi, inbox: Inbox) -> None:
                api.broadcast("big", huge)  # codec refuses: frame limit
                self.halt(api)

        net = SyncNetwork(seed=0, measure_bytes=True)
        net.add_correct(1, Oversized())
        net.run(1, until_all_halted=False)
        assert net.metrics.bytes_total == len(repr(("big", huge, None)))

    def test_unrelated_encoding_error_propagates(self):
        # Only the codec's declared refusals fall back to the repr
        # estimate; a payload that breaks while being encoded is a bug
        # and must surface, not be costed.
        from repro.sim.inbox import Inbox
        from repro.sim.node import NodeApi, Protocol

        class Exploding(tuple):
            def __iter__(self):
                raise RuntimeError("payload exploded mid-encode")

        class Sender(Protocol):
            def on_round(self, api: NodeApi, inbox: Inbox) -> None:
                api.broadcast("boom", Exploding((1, 2)))
                self.halt(api)

        net = SyncNetwork(seed=0, measure_bytes=True)
        net.add_correct(1, Sender())
        with pytest.raises(RuntimeError, match="exploded"):
            net.run(1, until_all_halted=False)
