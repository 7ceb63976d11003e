"""Record / replay of simulation runs.

Research claims die without reproducibility.  Runs here are already
deterministic given a seed, but a *recording* decouples reproduction
from the code version: it captures every wire delivery (round, sender,
recipient, kind, payload, instance) plus the decisions, as plain JSON
lines.  A recording can be

* compared against a re-run (:func:`verify_replay`) to prove that a
  refactor did not change any behaviour, or
* inspected/diffed with ordinary text tools when a seed misbehaves.

Payloads are serialized via ``repr`` (everything the protocols send is
built from literals, so ``repr`` is faithful and stable); the recording
is a *witness*, not a wire format.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field

from repro.obs.bus import EventBus
from repro.obs.events import InboxDelivered
from repro.sim.runner import run_scenario
from repro.types import NodeId

__all__ = [
    "DeliveryRecord",
    "RunRecording",
    "record_scenario",
    "verify_replay",
]


@dataclass(frozen=True)
class DeliveryRecord:
    """One message landing in one inbox."""

    round: int
    sender: NodeId
    recipient: NodeId
    kind: str
    payload_repr: str
    instance_repr: str


@dataclass
class RunRecording:
    """Everything observable about one finished run."""

    seed: int | None
    deliveries: list[DeliveryRecord] = field(default_factory=list)
    outputs: dict[str, str] = field(default_factory=dict)
    rounds: int = 0

    def to_jsonl(self) -> str:
        lines = [
            json.dumps(
                {
                    "type": "meta",
                    "seed": self.seed,
                    "rounds": self.rounds,
                    "outputs": self.outputs,
                }
            )
        ]
        lines.extend(
            json.dumps(
                {
                    "type": "delivery",
                    "round": d.round,
                    "from": d.sender,
                    "to": d.recipient,
                    "kind": d.kind,
                    "payload": d.payload_repr,
                    "instance": d.instance_repr,
                }
            )
            for d in self.deliveries
        )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "RunRecording":
        recording = cls(seed=None)
        for line in text.splitlines():
            if not line.strip():
                continue
            data = json.loads(line)
            if data["type"] == "meta":
                recording.seed = data["seed"]
                recording.rounds = data["rounds"]
                recording.outputs = dict(data["outputs"])
            else:
                recording.deliveries.append(
                    DeliveryRecord(
                        round=data["round"],
                        sender=data["from"],
                        recipient=data["to"],
                        kind=data["kind"],
                        payload_repr=data["payload"],
                        instance_repr=data["instance"],
                    )
                )
        return recording

    def save(self, path: str | pathlib.Path) -> None:
        pathlib.Path(path).write_text(self.to_jsonl())

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "RunRecording":
        return cls.from_jsonl(pathlib.Path(path).read_text())


def record_scenario(scenario) -> tuple:
    """Run *scenario* with a delivery recorder attached.

    Returns ``(ScenarioResult, RunRecording)``.  The recorder is an
    ordinary ``deliver``-topic subscriber on the bus handed to
    :func:`repro.sim.runner.run_scenario`: each
    :class:`~repro.obs.events.InboxDelivered` event carries exactly the
    message sequence the engine handed out, so the recording matches
    the simulation's duplicate suppression and recipient resolution by
    construction.
    """
    recording = RunRecording(seed=scenario.seed)
    append = recording.deliveries.append

    def record(event: InboxDelivered) -> None:
        round_no = event.round
        recipient = event.recipient
        for message in event.messages:
            append(
                DeliveryRecord(
                    round=round_no,
                    sender=message.sender,
                    recipient=recipient,
                    kind=message.kind,
                    payload_repr=repr(message.payload),
                    instance_repr=repr(message.instance),
                )
            )

    bus = EventBus()
    bus.subscribe(record, InboxDelivered.topic)
    result = run_scenario(scenario, bus=bus)
    recording.rounds = result.network.round
    recording.outputs = {
        str(node): repr(value) for node, value in result.outputs.items()
    }
    return result, recording


def verify_replay(scenario, recording: RunRecording) -> list[str]:
    """Re-run *scenario* and diff against *recording*.

    Returns a list of human-readable differences (empty = identical).
    """
    _result, fresh = record_scenario(scenario)
    differences: list[str] = []
    if fresh.outputs != recording.outputs:
        differences.append(
            f"outputs differ: {fresh.outputs} != {recording.outputs}"
        )
    if fresh.rounds != recording.rounds:
        differences.append(
            f"round counts differ: {fresh.rounds} != {recording.rounds}"
        )
    old = {
        (d.round, d.sender, d.recipient, d.kind, d.payload_repr,
         d.instance_repr)
        for d in recording.deliveries
    }
    new = {
        (d.round, d.sender, d.recipient, d.kind, d.payload_repr,
         d.instance_repr)
        for d in fresh.deliveries
    }
    for missing in sorted(old - new)[:5]:
        differences.append(f"recorded delivery missing in replay: {missing}")
    for extra in sorted(new - old)[:5]:
        differences.append(f"replay produced new delivery: {extra}")
    return differences
