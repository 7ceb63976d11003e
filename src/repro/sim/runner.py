"""One-call scenario harness.

A :class:`Scenario` describes a population (how many correct nodes, which
Byzantine strategies), builds a :class:`~repro.sim.network.SyncNetwork` with
sparse random ids, runs it, and returns a :class:`ScenarioResult` with the
outputs, metrics, and trace.  Tests, examples, and benchmarks all go through
this so that every experiment is a seed away from reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ConfigurationError
from repro.sim.membership import MembershipSchedule
from repro.sim.metrics import Metrics
from repro.sim.network import SyncNetwork
from repro.sim.node import Protocol
from repro.sim.rng import make_rng, sparse_ids
from repro.sim.trace import Trace
from repro.types import NodeId

#: Builds a protocol given (node_id, index among correct nodes).
ProtocolFactory = Callable[[NodeId, int], Protocol]
#: Builds a Byzantine strategy given (node_id, index among Byzantine nodes).
StrategyFactory = Callable[[NodeId, int], Any]


@dataclass
class Scenario:
    """A declarative description of one run."""

    correct: int
    protocol_factory: ProtocolFactory
    byzantine: int = 0
    strategy_factory: StrategyFactory | None = None
    seed: int = 0
    rushing: bool = False
    max_rounds: int = 200
    until_all_halted: bool = True
    membership: MembershipSchedule | None = None
    id_space: int = 10**6
    #: When set, checks n > 3f at construction and refuses bad configs;
    #: resiliency experiments set this to False to venture past the bound.
    enforce_resiliency: bool = True

    def validate(self) -> None:
        if self.correct <= 0:
            raise ConfigurationError("need at least one correct node")
        if self.byzantine < 0:
            raise ConfigurationError("byzantine count must be >= 0")
        if self.byzantine > 0 and self.strategy_factory is None:
            raise ConfigurationError(
                "byzantine > 0 requires a strategy_factory"
            )
        n = self.correct + self.byzantine
        if self.enforce_resiliency and not n > 3 * self.byzantine:
            raise ConfigurationError(
                f"n={n}, f={self.byzantine} violates n > 3f; pass "
                "enforce_resiliency=False to run anyway"
            )


@dataclass
class ScenarioResult:
    """Everything observable about one finished run."""

    network: SyncNetwork
    correct_ids: list[NodeId]
    byzantine_ids: list[NodeId]
    rounds: int
    outputs: dict[NodeId, Any]
    metrics: Metrics
    trace: Trace
    protocols: dict[NodeId, Protocol] = field(default_factory=dict)

    @property
    def distinct_outputs(self) -> set[Any]:
        return set(self.outputs.values())

    @property
    def agreed(self) -> bool:
        """True when every correct node decided and on a single value."""
        return (
            len(self.outputs) == len(self.correct_ids)
            and len(self.distinct_outputs) == 1
        )

    def output_of(self, node_id: NodeId) -> Any:
        return self.outputs[node_id]


def draw_population(
    seed: int, correct: int, byzantine: int, id_space: int
) -> tuple[list[NodeId], list[NodeId]]:
    """The sorted (correct_ids, byzantine_ids) a run with *seed* uses.

    Distinct sparse ids from ``1..id_space``, interleaved by a
    seeded shuffle rather than split by block, so neither group
    systematically owns the smallest identifiers (the rotor picks
    coordinators in id order — block assignment would bias it).
    """
    rng = make_rng(seed)
    shuffled = sparse_ids(correct + byzantine, rng, id_space)
    rng.shuffle(shuffled)
    return sorted(shuffled[:correct]), sorted(shuffled[correct:])


def run_scenario(scenario: Scenario, *, bus=None) -> ScenarioResult:
    """Build the network described by *scenario*, run it, return the result.

    *bus* (an :class:`~repro.obs.bus.EventBus`) lets callers observe the
    run — attach monitors or a JSONL sink before calling; ``None`` gives
    the network its own private bus as usual.
    """
    scenario.validate()
    correct_ids, byz_ids = draw_population(
        scenario.seed,
        scenario.correct,
        scenario.byzantine,
        scenario.id_space,
    )

    network = SyncNetwork(
        seed=scenario.seed,
        rushing=scenario.rushing,
        membership=scenario.membership,
        bus=bus,
    )
    protocols: dict[NodeId, Protocol] = {}
    for index, node_id in enumerate(correct_ids):
        protocol = scenario.protocol_factory(node_id, index)
        protocols[node_id] = protocol
        network.add_correct(node_id, protocol)
    for index, node_id in enumerate(byz_ids):
        network.add_byzantine(
            node_id, scenario.strategy_factory(node_id, index)
        )

    rounds = network.run(
        scenario.max_rounds, until_all_halted=scenario.until_all_halted
    )
    return ScenarioResult(
        network=network,
        correct_ids=correct_ids,
        byzantine_ids=byz_ids,
        rounds=rounds,
        outputs=network.outputs(),
        metrics=network.metrics,
        trace=network.trace,
        protocols=protocols,
    )
