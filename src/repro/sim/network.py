"""The synchronous round engine.

Executes the id-only model exactly:

* lock-step rounds; messages sent in round ``r`` arrive at round ``r + 1``;
* broadcasts reach every participant alive at delivery time (including the
  sender — the paper's approximate agreement broadcasts "to all the nodes
  (including self)", and including nodes that join between send and
  delivery: the broadcast recipient set is resolved when the messages are
  handed out, not when they are queued);
* a correct node may direct-send only to prior contacts; the engine stamps
  sender ids so they cannot be forged;
* duplicate messages from one sender within one round are discarded;
* Byzantine actors run *after* the correct nodes each round and — in rushing
  mode — see the correct nodes' current-round traffic before choosing their
  own, the strongest adversary the model admits.

The engine knows nothing about any particular protocol; it moves messages,
tracks contacts, applies membership changes, and publishes everything
observable onto the run's :class:`~repro.obs.bus.EventBus` — the default
:class:`~repro.sim.metrics.Metrics` and :class:`~repro.sim.trace.Trace`
are ordinary subscribers of that bus, as are monitors, recorders, and
JSONL sinks (see docs/observability.md).  Per-topic sinks are cached
against the bus version, so a topic nobody subscribed to costs the hot
path one ``None`` check per emission site.

There is one delivery path, the columnar plane (docs/model.md "Columnar
delivery").  Staging is O(logical sends), not O(sends x recipients): each
round's broadcasts go into one list of interned batch segments
(:class:`~repro.sim.columnar.RoundColumns`, deduplicated as they are
staged), and only direct sends occupy per-node queues of stamped
:class:`~repro.sim.message.Message` objects.  A direct message repeating
one of the round's broadcasts is dropped at delivery against the columns,
so the all-broadcast hot path performs no per-recipient hashing at all.

Delivery is O(quorum work), not O(nodes x quorum work): recipients of the
round's broadcasts alias one shared
:class:`~repro.sim.columnar.ColumnarIndex`, so each per-kind
distinct-sender count the protocols ask for is a counting pass over the
columns, run once per round, not once per node; recipients with surviving
direct messages get a private overlay index layered on the shared one.  An
optional per-recipient delivery filter (``_delivery_filter``, set by
:class:`~repro.sim.lossy.LossyNetwork`) replaces that sharing with one
object inbox per recipient, holding only what the filter keeps.  The
protocols' *quorum-tally plane* rides the same sharing one layer up:
per-instance decoded vote bases, membership back-fill sets and membership
restrictions are memoized on the round's shared index
(:meth:`~repro.sim.inbox.InboxIndex.derive` /
:meth:`~repro.sim.inbox.InboxIndex.restricted`), so even full
parallel-consensus tallies are built once per round and only per-node
substitution deltas remain per recipient.  Per-node engine state that is
identical from round to round (the contacts frozenset handed to NodeApi,
the sorted alive-node lists) is cached and invalidated only when it can
change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence
from typing import Protocol as TypingProtocol

from repro.errors import (
    ConfigurationError,
    ProtocolViolation,
    RoundLimitExceeded,
)
from repro.obs.bus import EventBus
from repro.obs.events import (
    DecisionEconomy,
    EnginePhase,
    InboxDelivered,
    MessageBatchSent,
    MessageSent,
    PlaneStats,
    ProtocolEvent,
    RoundEnded,
    RoundStarted,
    RunStarted,
)
from repro.sim.columnar import (
    ColumnarIndex,
    ColumnarMessages,
    ColumnarPlane,
    RoundColumns,
)
from repro.sim.inbox import Inbox, InboxIndex
from repro.sim.membership import MembershipSchedule
from repro.sim.message import (
    BROADCAST,
    BatchSend,
    Message,
    Outbox,
    Send,
)
from repro.sim.metrics import Metrics
from repro.sim.node import NodeApi, Protocol
from repro.sim.rng import Random, make_rng
from repro.sim.trace import Trace
from repro.types import NodeId, Round


class ByzantineActor(TypingProtocol):
    """Structural interface for Byzantine strategies (see repro.adversary)."""

    def on_round(self, view: "AdversaryView") -> Iterable[Send]:
        """Return this round's (arbitrary) sends."""
        ...


@dataclass
class AdversaryView:
    """Everything a Byzantine node gets to see in one round.

    The adversary is omniscient about membership ("it can behave as if it
    already knows all the nodes") and, in rushing mode, also sees what every
    correct node just sent this round before speaking itself.
    """

    node_id: NodeId
    round: Round
    inbox: Inbox
    all_nodes: frozenset[NodeId]
    correct_nodes: frozenset[NodeId]
    byzantine_nodes: frozenset[NodeId]
    rng: Random
    #: (sender, send) pairs from correct nodes this round; empty unless the
    #: network runs in rushing mode.
    correct_traffic: tuple[tuple[NodeId, Send], ...] = ()


@dataclass
class _NodeState:
    """Engine-internal per-node bookkeeping."""

    node_id: NodeId
    behaviour: Any  # Protocol or ByzantineActor
    byzantine: bool
    alive: bool = True
    joined_round: Round = 1
    left_round: Round | None = None
    contacts: set[NodeId] = field(default_factory=set)
    #: Stamped direct messages queued for delivery at the next round.
    #: Broadcasts never appear here — they live in the round's shared
    #: columns and are resolved at delivery time.
    direct: list[Message] = field(default_factory=list)
    #: Cached frozenset view of ``contacts`` for NodeApi construction.
    #: Contacts only ever grow (delivery-time ``update`` calls), so a
    #: length match proves the cache is current — the steady-state round
    #: rebuilds nothing.
    contacts_frozen: frozenset[NodeId] = frozenset()
    #: A founding node's contacts are exactly the engine's cumulative
    #: broadcast-sender pool — shared as one frozenset across all such
    #: nodes, no per-node set at all.  The flag drops (and ``contacts``
    #: takes over, seeded from the pool) the first time the node
    #: receives a direct message.  Never set under a delivery filter:
    #: a filtered recipient only contacts the senders it was handed.
    contacts_shared: bool = False
    #: Recycled per-node NodeApi (round / contacts / outbox fields are
    #: refreshed each round before ``on_round`` runs).  The engine drains
    #: the outbox within the same round, so reuse is unobservable to a
    #: well-behaved protocol and saves two allocations per node-round.
    api: NodeApi | None = None

    @property
    def protocol(self) -> Protocol:
        return self.behaviour

    def contacts_view(self) -> frozenset[NodeId]:
        frozen = self.contacts_frozen
        if len(frozen) != len(self.contacts):
            frozen = self.contacts_frozen = frozenset(self.contacts)
        return frozen


class SyncNetwork:
    """A synchronous network of correct protocols and Byzantine actors."""

    def __init__(
        self,
        seed: int | None = 0,
        rushing: bool = False,
        membership: MembershipSchedule | None = None,
        measure_bytes: bool = False,
        clock: Callable[[], float] | None = None,
        bus: EventBus | None = None,
    ):
        self.seed = seed
        self._rng = make_rng(seed)
        self.rushing = rushing
        self.membership = membership or MembershipSchedule()
        #: The run's event plane.  Pass a shared bus to observe several
        #: networks on one stream; by default each network gets its own,
        #: pre-wired with a Metrics and a Trace subscriber (detach them
        #: via metrics.detach(bus) / trace.detach(bus) for a bare bus).
        self.bus = bus if bus is not None else EventBus()
        self.metrics = Metrics().attach(self.bus)
        self.trace = Trace().attach(self.bus)
        self.round: Round = 0
        #: When set, every logical send is also costed in wire bytes
        #: using the repro.net frame codec (see Metrics.bytes_total).
        self.measure_bytes = measure_bytes
        #: Optional monotonic-time source for per-phase engine timing
        #: (Metrics.engine_time_by_phase).  The simulation itself never
        #: reads a clock — timing is observability only, injected by
        #: benchmarks, so determinism is untouched.
        self._clock = clock
        self._nodes: dict[NodeId, _NodeState] = {}
        #: The columnar round plane (docs/model.md "Columnar delivery"):
        #: broadcasts stage into per-round batch segments, and
        #: recipients get counting views instead of message objects.
        self._plane = ColumnarPlane()
        #: The columns this round's broadcasts stage into, swapped for a
        #: fresh instance at each delivery.
        self._staging_cols = self._plane.new_round()
        #: The empty inbox every node with no deliveries gets.  Inboxes
        #: are immutable views, so one instance serves the whole run;
        #: it is per network because its index memoizes membership
        #: keys (``covered_by``, ``derive``) that must die with the run.
        self._empty_inbox = Inbox()
        #: Cumulative broadcast-sender pool: the shared contacts
        #: frozenset for founding nodes.
        self._contact_pool: frozenset[NodeId] = frozenset()
        #: Optional per-recipient delivery filter, ``(state, messages) ->
        #: kept``.  ``messages`` is the round's materialized broadcast
        #: tuple followed by the recipient's deduplicated direct
        #: messages; it must not be mutated.  None (the model's
        #: synchrony guarantee) delivers everything through the shared
        #: index.  A subclass sets it in its constructor, before any
        #: node registers (see LossyNetwork).
        self._delivery_filter: (
            Callable[[_NodeState, Sequence[Message]], Sequence[Message]]
            | None
        ) = None
        #: Sorted alive-node lists keyed by byzantine flag, rebuilt only
        #: when the population changes (join / leave / removal).
        self._alive_cache: dict[bool, list[_NodeState]] = {}
        #: Per-topic emission sinks, snapshotted from the bus and
        #: rebuilt only when its version changes (see _refresh_sinks).
        self._bus_version = -1
        self._emit_round_start = None
        self._emit_round_end = None
        self._emit_send = None
        self._emit_batch = None
        self._emit_deliver = None
        self._emit_phase = None
        self._emit_plane = None
        self._protocol_sink = None
        self._refresh_sinks()

    # ------------------------------------------------------------------
    # Population management
    # ------------------------------------------------------------------
    def add_correct(self, node_id: NodeId, protocol: Protocol) -> None:
        """Register a correct node before (or during) the run."""
        self._register(node_id, protocol, byzantine=False)

    def add_byzantine(self, node_id: NodeId, strategy: ByzantineActor) -> None:
        """Register a Byzantine node before (or during) the run."""
        self._register(node_id, strategy, byzantine=True)

    def _register(self, node_id: NodeId, behaviour: Any, byzantine: bool) -> None:
        existing = self._nodes.get(node_id)
        if existing is not None:
            if existing.alive:
                raise ConfigurationError(f"duplicate node id {node_id}")
            # A departed id may rejoin (crash-recover churn): the node
            # comes back as a brand-new participant — fresh behaviour,
            # empty contacts, joiner handshake — its pre-crash state and
            # outputs are gone.
            del self._nodes[node_id]
        self._nodes[node_id] = _NodeState(
            node_id=node_id,
            behaviour=behaviour,
            byzantine=byzantine,
            joined_round=max(self.round + 1, 1),
            # Founding nodes see every broadcast round, so their
            # contacts are exactly the engine's cumulative sender pool;
            # joiners miss earlier rounds and track contacts privately.
            contacts_shared=self.round == 0
            and self._delivery_filter is None,
        )
        self._alive_cache.clear()

    def remove(self, node_id: NodeId) -> None:
        """Forcibly remove a node (adversary-driven leave / crash)."""
        state = self._nodes.get(node_id)
        if state is not None and state.alive:
            state.alive = False
            state.left_round = self.round
            self._alive_cache.clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def node_ids(self) -> frozenset[NodeId]:
        return frozenset(self._nodes)

    @property
    def alive_ids(self) -> frozenset[NodeId]:
        return frozenset(nid for nid, s in self._nodes.items() if s.alive)

    @property
    def correct_ids(self) -> frozenset[NodeId]:
        return frozenset(
            nid for nid, s in self._nodes.items() if not s.byzantine
        )

    @property
    def byzantine_ids(self) -> frozenset[NodeId]:
        return frozenset(nid for nid, s in self._nodes.items() if s.byzantine)

    def protocol_of(self, node_id: NodeId) -> Protocol:
        state = self._nodes[node_id]
        if state.byzantine:
            raise ConfigurationError(f"node {node_id} is Byzantine")
        return state.protocol

    def protocols(self) -> dict[NodeId, Protocol]:
        """Map of correct node id -> protocol instance."""
        return {
            nid: s.protocol
            for nid, s in self._nodes.items()
            if not s.byzantine
        }

    def outputs(self) -> dict[NodeId, Any]:
        """Outputs of the correct nodes that have decided so far."""
        return {
            nid: s.protocol.output
            for nid, s in self._nodes.items()
            if not s.byzantine and s.protocol.halted
        }

    def all_correct_halted(self) -> bool:
        return all(
            s.protocol.halted
            for s in self._nodes.values()
            if not s.byzantine and s.alive
        )

    # ------------------------------------------------------------------
    # The round loop
    # ------------------------------------------------------------------
    def run(self, max_rounds: int, until_all_halted: bool = True) -> int:
        """Run rounds until every live correct node halts (or the budget
        runs out).  Returns the number of the last executed round.

        With ``until_all_halted=False`` the engine always runs exactly
        ``max_rounds`` rounds (for non-terminating abstractions).
        """
        for _ in range(max_rounds):
            self.step()
            if until_all_halted and self.all_correct_halted():
                self._emit_economy()
                return self.round
        if until_all_halted and not self.all_correct_halted():
            running = [
                s.node_id
                for s in self._nodes.values()
                if not s.byzantine and s.alive and not s.protocol.halted
            ]
            raise RoundLimitExceeded(max_rounds, running)
        self._emit_economy()
        return self.round

    def _emit_economy(self) -> None:
        """Publish the run's message economy (once, at run end).

        Totals come from this network's default Metrics subscriber; a
        caller that detached it gets zero totals (the decisions count is
        the engine's own).
        """
        sink = self.bus.sink(DecisionEconomy.topic)
        if sink is None:
            return
        decisions = sum(
            1
            for s in self._nodes.values()
            if not s.byzantine
            and s.protocol.halted
            and s.protocol.output is not None
        )
        sends = self.metrics.sends_total
        wire = self.metrics.bytes_total
        sink(
            DecisionEconomy(
                self.round,
                decisions,
                sends,
                wire,
                sends / decisions if decisions else 0.0,
                wire / decisions if decisions else 0.0,
            )
        )

    def _refresh_sinks(self) -> None:
        """Re-snapshot the per-topic dispatchers.

        A ``None`` sink is the zero-cost contract: nobody listens, so
        the emission site skips constructing the event entirely.
        """
        bus = self.bus
        self._bus_version = bus.version
        self._emit_round_start = bus.sink(RoundStarted.topic)
        self._emit_round_end = bus.sink(RoundEnded.topic)
        self._emit_send = bus.sink(MessageSent.topic)
        self._emit_batch = bus.sink(MessageBatchSent.topic)
        self._emit_deliver = bus.sink(InboxDelivered.topic)
        self._emit_phase = bus.sink(EnginePhase.topic)
        self._emit_plane = bus.sink(PlaneStats.topic)
        sink = bus.sink(ProtocolEvent.topic)
        if sink is None:
            self._protocol_sink = None
        else:
            def protocol_sink(round_no, node, event, detail, _sink=sink):
                _sink(ProtocolEvent(round_no, node, event, dict(detail)))

            self._protocol_sink = protocol_sink

    def step(self) -> None:
        """Execute one synchronous round."""
        if self.bus.version != self._bus_version:
            self._refresh_sinks()
        self.round += 1
        if self.round == 1:
            run_start = self.bus.sink(RunStarted.topic)
            if run_start is not None:
                run_start(RunStarted("sim", self.seed))
        if self._emit_round_start is not None:
            self._emit_round_start(RoundStarted(self.round))
        clock = self._clock
        t0 = clock() if clock else 0.0
        self._apply_membership()

        inboxes = self._collect_columnar()
        t1 = clock() if clock else 0.0

        correct_sends: list[tuple[NodeId, Send]] = []
        run_correct = self._run_correct
        get_inbox = inboxes.get
        empty = self._empty_inbox
        for state in self._iter_alive(byzantine=False):
            sends = run_correct(state, get_inbox(state.node_id, empty))
            if sends:
                node_id = state.node_id
                correct_sends.extend([(node_id, s) for s in sends])
        t2 = clock() if clock else 0.0

        byz_sends: list[tuple[NodeId, Send]] = []
        byzantine_states = self._iter_alive(byzantine=True)
        if byzantine_states:
            if self.rushing:
                # Adversary strategies see per-send granularity: batched
                # fan-outs expand to their equivalent scalar broadcasts.
                rushing_traffic = tuple(
                    (node_id, sub)
                    for node_id, send in correct_sends
                    for sub in (
                        send.expanded()
                        if type(send) is BatchSend
                        else (send,)
                    )
                )
            else:
                rushing_traffic = ()
            alive = self.alive_ids
            correct_alive = self.correct_ids & alive
            byzantine_alive = self.byzantine_ids & alive
            for state in byzantine_states:
                view = AdversaryView(
                    node_id=state.node_id,
                    round=self.round,
                    inbox=inboxes.get(state.node_id, self._empty_inbox),
                    all_nodes=alive,
                    correct_nodes=correct_alive,
                    byzantine_nodes=byzantine_alive,
                    rng=self._rng,
                    correct_traffic=rushing_traffic,
                )
                for send in state.behaviour.on_round(view):
                    byz_sends.append((state.node_id, send))
        t3 = clock() if clock else 0.0

        self._stage_columnar(correct_sends)
        self._stage_columnar(byz_sends)
        emit_phase = self._emit_phase
        if clock and emit_phase is not None:
            t4 = clock()
            round_no = self.round
            emit_phase(EnginePhase(round_no, "deliver", t1 - t0))
            emit_phase(EnginePhase(round_no, "correct", t2 - t1))
            emit_phase(EnginePhase(round_no, "adversary", t3 - t2))
            emit_phase(EnginePhase(round_no, "stage", t4 - t3))
        emit_plane = self._emit_plane
        if emit_plane is not None:
            plane = self._plane
            emit_plane(
                PlaneStats(
                    self.round,
                    plane.payload_intern_hits,
                    plane.unique_payloads,
                    plane.messages_materialized,
                )
            )
        if self._emit_round_end is not None:
            self._emit_round_end(RoundEnded(self.round))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _iter_alive(self, byzantine: bool) -> list[_NodeState]:
        # Deterministic order: ascending node id.  The sorted list is
        # cached until the population changes (register / remove), so
        # the steady-state round pays no per-round sort.
        cached = self._alive_cache.get(byzantine)
        if cached is None:
            cached = sorted(
                (
                    s
                    for s in self._nodes.values()
                    if s.alive and s.byzantine == byzantine
                ),
                key=lambda s: s.node_id,
            )
            self._alive_cache[byzantine] = cached
        return cached

    def _apply_membership(self) -> None:
        for spec in self.membership.joins_at(self.round):
            behaviour = spec.factory()
            self._register(spec.node_id, behaviour, byzantine=spec.byzantine)
            # _register sets joined_round to round+1; fix to this round.
            self._nodes[spec.node_id].joined_round = self.round
        for spec in self.membership.leaves_at(self.round):
            self.remove(spec.node_id)

    def _collect_columnar(self) -> dict[NodeId, Inbox]:
        """Deliver the previous round's traffic: views over columns.

        The broadcast recipient set is resolved *here* — after this
        round's membership changes — so a node joining at round ``r + 1``
        receives the round-``r`` broadcasts (the model's "reaches every
        node, including ones it has never heard of").  The round's
        broadcasts live in frozen batch segments: every
        recipient shares one :class:`ColumnarIndex` view, contact
        tracking is one cumulative pool update per round instead of a
        per-node set union, and ``deliver`` events carry a lazy message
        sequence that only materializes if somebody iterates it.
        Recipients with surviving direct messages get a private overlay
        index layered on the shared one.
        """
        cols = self._staging_cols
        self._staging_cols = self._plane.new_round()
        has_broadcasts = len(cols) > 0
        broadcast_senders: frozenset[NodeId] = frozenset()
        if has_broadcasts:
            broadcast_senders = cols.distinct_senders()
            if not broadcast_senders <= self._contact_pool:
                self._contact_pool = self._contact_pool | broadcast_senders

        inboxes: dict[NodeId, Inbox] = {}
        round_no = self.round
        emit_deliver = self._emit_deliver
        take_direct = self._take_direct
        keep = self._delivery_filter
        if keep is not None:
            # Filtered delivery, chosen once per round so unfiltered runs
            # pay nothing: each recipient's raw delivery is the shared
            # tuple plus its direct extras, and it gets a private object
            # inbox of what the filter kept — contacts included.
            shared = cols.materialize()
            for state in self._nodes.values():
                extras = take_direct(state, cols) if state.direct else ()
                if not state.alive:
                    continue
                kept = tuple(
                    keep(state, shared + extras if extras else shared)
                )
                if not kept:
                    continue
                state.contacts.update(m.sender for m in kept)
                if emit_deliver is not None:
                    emit_deliver(InboxDelivered(round_no, state.node_id, kept))
                inboxes[state.node_id] = Inbox(kept)
            return inboxes

        shared_index: ColumnarIndex | None = None
        shared_inbox: Inbox | None = None
        shared_view: ColumnarMessages | None = None
        pool = self._contact_pool
        for state in self._nodes.values():
            extras = take_direct(state, cols) if state.direct else ()
            if not state.alive:
                continue
            if extras:
                # Direct deliveries are the rare, genuinely per-node
                # case: a private overlay index over the shared one
                # (materializing the columns once if broadcasts ride
                # along).
                if state.contacts_shared:
                    state.contacts_shared = False
                    state.contacts = set(pool)
                if has_broadcasts:
                    if shared_index is None:
                        shared_index = ColumnarIndex(cols)
                        shared_inbox = Inbox(index=shared_index)
                        shared_view = shared_index.message_view()
                    inbox = Inbox(
                        index=InboxIndex.layered(shared_index, extras)
                    )
                    delivered: Sequence[Message] = (
                        shared_index.messages + extras
                    )
                    state.contacts.update(broadcast_senders)
                else:
                    inbox = Inbox(extras)
                    delivered = extras
                state.contacts.update(m.sender for m in extras)
            elif has_broadcasts:
                if shared_inbox is None:
                    shared_index = ColumnarIndex(cols)
                    shared_inbox = Inbox(index=shared_index)
                    shared_view = shared_index.message_view()
                inbox = shared_inbox
                delivered = shared_view
                if not state.contacts_shared:
                    state.contacts.update(broadcast_senders)
            else:
                continue
            if emit_deliver is not None:
                emit_deliver(
                    InboxDelivered(round_no, state.node_id, delivered)
                )
            inboxes[state.node_id] = inbox
        return inboxes

    @staticmethod
    def _take_direct(
        state: _NodeState, cols: RoundColumns
    ) -> tuple[Message, ...]:
        """Drain *state*'s direct queue with per-round duplicate
        suppression: identical directs, and a direct repeating one of
        the round's broadcasts, collapse."""
        direct = state.direct
        state.direct = []
        seen: set[Message] = set()
        fresh: list[Message] = []
        for message in direct:
            if cols.contains_message(message) or message in seen:
                continue
            seen.add(message)
            fresh.append(message)
        return tuple(fresh)

    def _run_correct(
        self, state: _NodeState, inbox: Inbox
    ) -> list[Send] | tuple[Send, ...]:
        protocol = state.behaviour
        if protocol.halted:
            return ()
        api = state.api
        if api is None:
            api = state.api = NodeApi(
                state.node_id,
                self.round,
                self._contact_pool
                if state.contacts_shared
                else state.contacts_view(),
                Outbox(),
                self._protocol_sink,
            )
        else:
            api.round = self.round
            # Re-point at the current protocol sink: subscriptions may
            # have changed between rounds (None = nobody listens).
            api._trace_sink = self._protocol_sink
            if state.contacts_shared:
                # Columnar path: founding nodes alias the engine's
                # cumulative broadcast-sender pool — O(1) per node.
                api._known_contacts = self._contact_pool
            else:
                # contacts_view() inlined: runs once per node per round.
                frozen = state.contacts_frozen
                if len(frozen) != len(state.contacts):
                    frozen = state.contacts_frozen = frozenset(
                        state.contacts
                    )
                api._known_contacts = frozen
        outbox = api._outbox
        if outbox.sends:
            # A fresh list, not clear(): last round's sends were already
            # consumed by _stage_columnar, but anything still holding that list
            # must not see it emptied under its feet.
            outbox.sends = []
        protocol.on_round(api, inbox)
        return outbox.sends

    def _wire_cost(self, sender: NodeId, send: Send) -> int:
        """Size of the send as a repro.net frame (0 when not measuring)."""
        if not self.measure_bytes:
            return 0
        from repro.net.wire import encode_frame

        try:
            return len(
                encode_frame(
                    self.round, sender, send.kind, send.payload, send.instance
                )
            )
        except (TypeError, ProtocolViolation):
            # The codec's declared refusals (json.dumps on a foreign
            # type, encode_value on an unhashable payload, the frame
            # size limit): estimate from the repr rather than failing
            # the run.  Anything else is a bug and propagates.
            return len(repr((send.kind, send.payload, send.instance)))

    def _stage_columnar(self, sends: list[tuple[NodeId, Send]]) -> None:
        """Queue sends into the round's columns.

        Every broadcast is one interned segment per sender: a single
        send its one-payload batch, a fan-out its k-payload batch.
        Direct sends still stamp real Message objects into the
        destination's queue — they are the per-node case the columns
        don't model.
        """
        round_no = self.round
        emit_send = self._emit_send
        emit_batch = self._emit_batch
        cols = self._staging_cols
        plane = self._plane
        measuring = self.measure_bytes
        for sender, send in sends:
            if type(send) is BatchSend:
                batch = plane.intern_batch(
                    send.kind, send.payloads, send.instance
                )
                staged_count, flags = cols.stage_batch(sender, batch)
                if emit_batch is not None and not measuring:
                    emit_batch(
                        MessageBatchSent(
                            round_no,
                            sender,
                            send.kind,
                            send.payloads,
                            send.instance,
                            0,
                            staged_count,
                            flags,
                        )
                    )
                elif emit_send is not None:
                    # No batch subscriber (or byte accounting, which is
                    # per-frame): emit the equivalent per-send events.
                    for i, payload in enumerate(send.payloads):
                        sub = Send(
                            BROADCAST, send.kind, payload, send.instance
                        )
                        emit_send(
                            MessageSent(
                                round_no,
                                sender,
                                send.kind,
                                payload,
                                send.instance,
                                None,
                                self._wire_cost(sender, sub),
                                bool(flags[i]) if flags is not None else True,
                            )
                        )
                continue
            dest = send.dest
            if dest is BROADCAST:
                staged = cols.stage(
                    sender, send.kind, send.payload, send.instance
                )
            else:
                state = self._nodes.get(dest)
                staged = state is not None and state.alive
                if staged:
                    state.direct.append(send.stamped(sender))
            if emit_send is not None:
                emit_send(
                    MessageSent(
                        round_no,
                        sender,
                        send.kind,
                        send.payload,
                        send.instance,
                        None if dest is BROADCAST else dest,
                        self._wire_cost(sender, send),
                        staged,
                    )
                )
