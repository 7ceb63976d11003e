"""A deliberately broken network: random message loss.

The synchronous model's delivery guarantee is load-bearing — §9 proves
agreement is *impossible* without it when ``n`` and ``f`` are unknown.
:class:`LossyNetwork` makes that executable: it behaves like
:class:`~repro.sim.network.SyncNetwork` but drops each delivery
independently with probability ``drop_rate`` (seeded, reproducible).
It is the engine's one delivery path with a per-recipient delivery
filter installed: each recipient is handed the round's broadcasts plus
its direct messages, and keeps what survives the loss lottery.

This is an *ablation instrument*, not a feature: protocols run on it to
demonstrate how their guarantees erode as the synchrony assumption
breaks (benchmark ``bench_ablations``/synchrony).  Nothing in
``repro.core`` is expected to survive heavy loss, and that is the point.
"""

from __future__ import annotations

from typing import Sequence

from repro.sim.membership import MembershipSchedule
from repro.sim.message import Message
from repro.sim.network import SyncNetwork, _NodeState
from repro.sim.rng import make_rng


class LossyNetwork(SyncNetwork):
    """SyncNetwork with i.i.d. per-delivery message loss."""

    def __init__(
        self,
        drop_rate: float,
        seed: int | None = 0,
        rushing: bool = False,
        membership: MembershipSchedule | None = None,
    ):
        if not 0.0 <= drop_rate <= 1.0:
            raise ValueError("drop_rate must be within [0, 1]")
        super().__init__(seed=seed, rushing=rushing, membership=membership)
        self.drop_rate = drop_rate
        self._loss_rng = make_rng(seed, salt=0x10552E55)
        self.dropped = 0
        self._delivery_filter = self._lose

    def _lose(
        self, state: _NodeState, messages: Sequence[Message]
    ) -> Sequence[Message]:
        # Each (recipient, message) delivery faces the loss lottery
        # exactly once, at delivery time.  Draw order follows the
        # engine's deterministic recipient iteration, so runs stay
        # reproducible per seed.
        if self.drop_rate == 0.0:
            return messages
        kept: list[Message] = []
        for message in messages:
            if self._loss_rng.random() < self.drop_rate:
                self.dropped += 1
            else:
                kept.append(message)
        return kept
