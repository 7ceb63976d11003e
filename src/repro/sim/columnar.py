"""Columnar round plane: a round's broadcasts as interned batch segments.

The all-broadcast hot path used to allocate one
:class:`~repro.sim.message.Message` per logical send per round.  At
n = 10⁴ nodes that is 10⁴ objects per round before a single protocol
runs — and every query over them re-hashes the same payloads.  The
columnar plane stores a round as one list of *segments* instead: a
segment is a ``(sender, batch)`` pair, and a :class:`Batch` is one
interned ``(kind, payloads, instance)`` value.  There is one row
format.  A ``broadcast_many`` fan-out stages its batch as one segment
covering k logical sends; a single ``broadcast`` stages its canonical
one-payload batch the same way.  Staging is an intern lookup and an
append, and every tally is a counting pass grouped by batch.

Three pieces:

* :class:`ColumnarPlane` — per-network intern tables (payloads, kinds,
  instances, canonical batches; only each batch's own canonical tuple
  is aliased by identity, so the tables grow with distinct values,
  never with callers).  Interning follows the same value-equality the
  legacy ``dict``-based tallies used: the first object seen for a
  value becomes canonical, exactly like the first occurrence kept as a
  dict key.
* :class:`RoundColumns` — one round's append-only segment list.
  Segments are append-only within a round and frozen at delivery;
  views never copy them (pinned in DESIGN.md §4).
* :class:`ColumnarIndex` — an :class:`~repro.sim.inbox.InboxIndex`
  whose sender sets, payload tallies and surveys are counting passes
  over the segments; ``messages`` materializes lazily only when a
  consumer genuinely iterates message objects (JSONL sinks, recorders,
  per-kind bucket filters).

Equivalence contract: every query answers exactly what an object
:class:`~repro.sim.inbox.InboxIndex` over the same messages answers,
including the historical (count, repr, first-occurrence-order)
tie-break — pinned by the ``stage_stream`` reference and the
keep-everything delivery-filter reference in ``tests/properties/``.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Hashable, Iterator, Mapping, Sequence

from repro.sim.inbox import InboxIndex
from repro.sim.message import Message
from repro.types import NodeId

#: Query-key sentinel mirroring :mod:`repro.sim.inbox`.
_ANY = ...


class Batch:
    """A canonical interned broadcast batch: one kind/instance, k payloads.

    Registered once per distinct ``(kind, payloads, instance)`` value;
    every sender broadcasting the same batch stages one O(1) segment
    referencing this object.  ``staged_payloads`` is the payload tuple
    with exact duplicates removed in first-occurrence order — the same
    messages the legacy path would have staged from the expanded sends.
    """

    __slots__ = (
        "kind",
        "instance",
        "payloads",
        "staged_payloads",
        "payload_ids",
        "kind_id",
        "instance_id",
        "dup_flags",
    )

    def __init__(
        self,
        plane: "ColumnarPlane",
        kind: str,
        payloads: tuple[Hashable, ...],
        instance: Hashable,
    ):
        self.kind = kind
        self.instance = instance
        self.payloads = payloads
        staged = payloads
        dup_flags: tuple[bool, ...] | None = None
        if len(set(payloads)) != len(payloads):
            unique = dict.fromkeys(payloads)
            staged = tuple(unique)
            seen: set = set()
            flags = []
            for payload in payloads:
                fresh = payload not in seen
                seen.add(payload)
                flags.append(fresh)
            dup_flags = tuple(flags)
        self.staged_payloads = staged
        self.dup_flags = dup_flags
        self.payload_ids = tuple(
            plane.intern_payload(p) for p in staged
        )
        self.kind_id = plane.intern_kind(kind)
        self.instance_id = plane.intern_instance(instance)

    def __len__(self) -> int:
        return len(self.staged_payloads)


class ColumnarPlane:
    """Per-network intern tables shared by every round's columns.

    Interning is keyed by *value equality* — the exact semantics of the
    dicts the legacy tally path used — so the first object seen for a
    value becomes the canonical one for the rest of the run.  The
    tables only grow; ids are stable across rounds, which is what lets
    tallies in later rounds reuse earlier counting passes' ids.
    """

    __slots__ = (
        "payloads",
        "kinds",
        "instances",
        "payload_intern_hits",
        "messages_materialized",
        "_payload_ids",
        "_kind_ids",
        "_instance_ids",
        "_batches",
        "_batch_aliases",
        "_last_lookup",
    )

    def __init__(self) -> None:
        #: id -> canonical payload object (position == intern id).
        self.payloads: list[Hashable] = []
        self.kinds: list[str] = []
        self.instances: list[Hashable] = []
        #: Lookups that found an existing entry (the interning win the
        #: benchmarks otherwise only show as timing).
        self.payload_intern_hits: int = 0
        #: Message objects actually built across the run — each round's
        #: columns materialize at most once, and only when somebody
        #: iterates messages; the per-sender / per-instance row builders
        #: count what they build too — the honest "work done" counter
        #: next to the logical staged×recipients delivery figure.
        self.messages_materialized: int = 0
        self._payload_ids: dict[Hashable, int] = {}
        self._kind_ids: dict[str, int] = {}
        self._instance_ids: dict[Hashable, int] = {}
        #: (kind, payloads, instance) -> canonical Batch.
        self._batches: dict[tuple, Batch] = {}
        #: id(canonical payload tuple) -> Batch: identity fast path for
        #: the shared tuples the quorum plane hands every node.  Only a
        #: batch's own canonical tuple is aliased (the Batch holds it,
        #: so the id cannot be recycled), so this never outgrows
        #: ``_batches``.
        self._batch_aliases: dict[int, Batch] = {}
        #: The last tuple resolved by value, with its batch: a shared
        #: tuple equal to an *earlier* round's batch (the consensus
        #: rotor's first step re-echoes round 2's announcers) then
        #: costs one hash per round, not one per node.  Pins at most
        #: one extra tuple.
        self._last_lookup: tuple[tuple, Batch] | None = None

    @property
    def unique_payloads(self) -> int:
        return len(self.payloads)

    def intern_payload(self, payload: Hashable) -> int:
        ids = self._payload_ids
        pid = ids.get(payload)
        if pid is None:
            pid = len(self.payloads)
            self.payloads.append(payload)
            ids[payload] = pid
        else:
            self.payload_intern_hits += 1
        return pid

    def intern_kind(self, kind: str) -> int:
        ids = self._kind_ids
        kid = ids.get(kind)
        if kid is None:
            kid = len(self.kinds)
            self.kinds.append(kind)
            ids[kind] = kid
        return kid

    def intern_instance(self, instance: Hashable) -> int:
        ids = self._instance_ids
        iid = ids.get(instance)
        if iid is None:
            iid = len(self.instances)
            self.instances.append(instance)
            ids[instance] = iid
        return iid

    def kind_id_of(self, kind: str) -> int | None:
        return self._kind_ids.get(kind)

    def instance_id_of(self, instance: Hashable) -> int | None:
        return self._instance_ids.get(instance)

    def intern_batch(
        self,
        kind: str,
        payloads: tuple[Hashable, ...],
        instance: Hashable,
    ) -> Batch:
        """The canonical batch for this fan-out (identity fast paths).

        A new batch's payload tuple becomes its canonical tuple and gets
        an id() alias; every later caller passing that same object (the
        round-shared tuple the quorum plane hands every node) skips
        hashing it.  A tuple merely equal to an existing batch is
        resolved by value and remembered only in the one-slot
        ``_last_lookup``, so plane memory is O(distinct batches), never
        O(callers).
        """
        hit = self._batch_aliases.get(id(payloads))
        if hit is None or hit.payloads is not payloads:
            last = self._last_lookup
            hit = last[1] if last is not None and last[0] is payloads else None
        # The same tuple object may carry another kind or instance.
        if hit is not None and hit.kind == kind and hit.instance == instance:
            return hit
        key = (kind, payloads, instance)
        batch = self._batches.get(key)
        if batch is None:
            batch = self._batches[key] = Batch(
                self, kind, payloads, instance
            )
            self._batch_aliases[id(payloads)] = batch
        else:
            self._last_lookup = (payloads, batch)
        return batch

    def value_batch(
        self,
        kind: str,
        payloads: tuple[Hashable, ...],
        instance: Hashable,
    ) -> Batch:
        """The batch equal to ``(kind, payloads, instance)``, by value only.

        Staging resolves a single broadcast (a one-payload tuple) and
        the fresh remainder of a partly duplicate batch here.  These
        lookups never touch the identity aliases or ``_last_lookup``:
        n single broadcasts must not evict the slot a round-shared
        fan-out tuple relies on.  A new batch is built from the
        canonical (first-seen) payload and instance objects, as a
        single broadcast always was: an ``int`` 0 sent after a float
        0.0 was interned is delivered as 0.0.  Finding an existing
        batch counts each of its payloads as an intern hit, as
        interning them one by one would.
        """
        key = (kind, payloads, instance)
        batch = self._batches.get(key)
        if batch is not None:
            self.payload_intern_hits += len(batch.staged_payloads)
            return batch
        payload_ids = self._payload_ids
        canonical = tuple(
            p if (pid := payload_ids.get(p)) is None else self.payloads[pid]
            for p in payloads
        )
        iid = self._instance_ids.get(instance)
        if iid is not None:
            instance = self.instances[iid]
        batch = self._batches[key] = Batch(self, kind, canonical, instance)
        return batch

    def new_round(self) -> "RoundColumns":
        return RoundColumns(self)


class RoundColumns:
    """One round's append-only broadcast store: ``(sender, batch)``
    segments in staging order.

    Every broadcast is a segment: a ``broadcast_many`` fan-out stages
    its interned batch, a single broadcast its canonical one-payload
    batch.  Pinned invariant (DESIGN.md §4): segments are append-only
    within the round and frozen once delivery starts; every view
    (indexes, lazy message sequences, tallies) reads them in place and
    never copies.

    Duplicate suppression matches the legacy per-round Message-set
    exactly: a (sender, kind, payload, instance) already staged this
    round is dropped, and a batch that partly repeats the sender's
    earlier sends stages only its fresh payloads, as their own
    canonical batch.
    """

    __slots__ = (
        "plane",
        "segments",
        "rows",
        "_sender_payloads",
        "_materialized",
    )

    def __init__(self, plane: ColumnarPlane) -> None:
        self.plane = plane
        self.segments: list[tuple[NodeId, Batch]] = []
        #: Logical rows staged (sum of the segments' batch lengths).
        self.rows: int = 0
        #: (sender, kind_id, instance_id) -> the payloads that sender
        #: staged: its one segment's Batch, turned into a payload set
        #: only when a second segment arrives on the same triple.
        self._sender_payloads: dict[tuple, Batch | set] = {}
        self._materialized: tuple[Message, ...] | None = None

    def __len__(self) -> int:
        return self.rows

    # ------------------------------------------------------------------
    # Staging
    # ------------------------------------------------------------------
    def stage(
        self,
        sender: NodeId,
        kind: str,
        payload: Hashable,
        instance: Hashable,
    ) -> bool:
        """Stage one broadcast; False when it is a duplicate."""
        plane = self.plane
        hits = plane.payload_intern_hits
        batch = plane.value_batch(kind, (payload,), instance)
        if self.stage_batch(sender, batch)[0]:
            return True
        # A duplicate stages nothing: its lookup is no interning win.
        plane.payload_intern_hits = hits
        return False

    def stage_batch(
        self, sender: NodeId, batch: Batch
    ) -> tuple[int, tuple[bool, ...] | None]:
        """Stage one batch fan-out as a single segment.

        Returns ``(staged_count, per_payload_flags)`` over the batch's
        *original* payload tuple; ``flags`` is None when every payload
        staged (the hot path).
        """
        key = (sender, batch.kind_id, batch.instance_id)
        sent = self._sender_payloads.get(key)
        if sent is None:
            self._sender_payloads[key] = batch
            self.segments.append((sender, batch))
            self.rows += len(batch.staged_payloads)
            if batch.dup_flags is None:
                return len(batch.payloads), None
            return len(batch.staged_payloads), batch.dup_flags
        if type(sent) is Batch:
            sent = self._sender_payloads[key] = set(sent.staged_payloads)
        fresh = []
        flags = []
        for payload in batch.payloads:
            new = payload not in sent
            if new:
                sent.add(payload)
                fresh.append(payload)
            flags.append(new)
        if fresh:
            if len(fresh) < len(batch.staged_payloads):
                batch = self.plane.value_batch(
                    batch.kind, tuple(fresh), batch.instance
                )
            self.segments.append((sender, batch))
            self.rows += len(fresh)
        return len(fresh), tuple(flags)

    def contains_message(self, message: Message) -> bool:
        """Was an equal broadcast staged this round? (delivery dedup)."""
        plane = self.plane
        kid = plane.kind_id_of(message.kind)
        if kid is None:
            return False
        iid = plane.instance_id_of(message.instance)
        if iid is None:
            return False
        sent = self._sender_payloads.get((message.sender, kid, iid))
        if sent is None:
            return False
        if type(sent) is Batch:
            return message.payload in sent.staged_payloads
        return message.payload in sent

    # ------------------------------------------------------------------
    # Views (read-only; the segments are frozen once delivery starts)
    # ------------------------------------------------------------------
    def _build(self, segments) -> tuple[Message, ...]:
        """Message objects for *segments*, in order, counted as built."""
        out = tuple(
            Message(sender, batch.kind, payload, batch.instance)
            for sender, batch in segments
            for payload in batch.staged_payloads
        )
        self.plane.messages_materialized += len(out)
        return out

    def _matching(
        self, kind: str, instance: Any
    ) -> list[tuple[NodeId, Batch]]:
        """The segments of one kind (and instance, unless ``...``)."""
        plane = self.plane
        kid = plane.kind_id_of(kind)
        if kid is None:
            return []
        if instance is _ANY:
            return [seg for seg in self.segments if seg[1].kind_id == kid]
        iid = plane.instance_id_of(instance)
        if iid is None:
            return []
        return [
            seg
            for seg in self.segments
            if seg[1].kind_id == kid and seg[1].instance_id == iid
        ]

    def materialize(self) -> tuple[Message, ...]:
        """The round's messages as objects, built once and cached."""
        cached = self._materialized
        if cached is None:
            cached = self._materialized = self._build(self.segments)
        return cached

    def payload_tally(
        self, kind: str, instance: Any
    ) -> dict[Hashable, frozenset[NodeId]]:
        """payload -> distinct senders, in first-occurrence order.

        Groups the matching segments by canonical batch, in each
        batch's first-occurrence order.  A payload first occurs in the
        first segment of the first batch holding it, so walking the
        groups in that order and each batch's payloads in tuple order
        reproduces the stream's first-occurrence payload order (the
        legacy linear scan's).  A homogeneous echo round costs
        O(senders + payloads), not O(senders x payloads), and every tag
        then shares one sender frozenset, which the quorum plane's
        threshold caches key on by identity.
        """
        by_batch: dict[Batch, list[NodeId]] = {}
        for sender, batch in self._matching(kind, instance):
            group = by_batch.get(batch)
            if group is None:
                by_batch[batch] = [sender]
            else:
                group.append(sender)
        out: dict[Hashable, frozenset[NodeId]] = {}
        for batch, group in by_batch.items():
            shared = frozenset(group)
            for payload in batch.staged_payloads:
                existing = out.get(payload)
                out[payload] = (
                    shared if existing is None else existing | shared
                )
        return out

    def distinct_senders(self) -> frozenset[NodeId]:
        return frozenset(sender for sender, _ in self.segments)

    def kind_senders(self, kind: str, instance: Any) -> frozenset[NodeId]:
        return frozenset(
            sender for sender, _ in self._matching(kind, instance)
        )

    def present_kinds(self) -> frozenset[str]:
        return frozenset(batch.kind for _, batch in self.segments)

    def instance_survey(self) -> tuple[Hashable, ...]:
        """Instance tags (None excluded) in first-occurrence order."""
        seen: set[int] = set()
        ordered: list[Hashable] = []
        instances = self.plane.instances
        for _, batch in self.segments:
            iid = batch.instance_id
            if iid not in seen:
                seen.add(iid)
                tag = instances[iid]
                if tag is not None:
                    ordered.append(tag)
        return tuple(ordered)

    def sender_rows(self, sender: NodeId) -> tuple[Message, ...]:
        """All of one sender's messages, in staging order, without
        materializing anyone else's."""
        return self._build(seg for seg in self.segments if seg[0] == sender)

    def instance_rows(self, instance: Hashable) -> tuple[Message, ...]:
        """One instance's messages in staging order (lazy per tag)."""
        iid = self.plane.instance_id_of(instance)
        if iid is None:
            return ()
        return self._build(
            seg for seg in self.segments if seg[1].instance_id == iid
        )


class ColumnarMessages(Sequence):
    """Lazy message sequence over one round's columns.

    ``len`` and truthiness are O(1) column reads; iteration (a JSONL
    sink rendering the delivery, a recorder) materializes the round's
    shared message tuple once and caches it on the columns — the same
    tuple the :class:`ColumnarIndex` exposes, so nothing is built
    twice.  This is what :class:`~repro.obs.events.InboxDelivered`
    carries on the columnar path; its wire shape (a sequence of
    messages) is unchanged.
    """

    __slots__ = ("_cols",)

    def __init__(self, cols: RoundColumns):
        self._cols = cols

    def __len__(self) -> int:
        return len(self._cols)

    def __bool__(self) -> bool:
        return len(self._cols) > 0

    def __iter__(self) -> Iterator[Message]:
        return iter(self._cols.materialize())

    def __getitem__(self, item):
        return self._cols.materialize()[item]

    def __eq__(self, other) -> bool:
        if isinstance(other, ColumnarMessages):
            other = other._cols.materialize()
        if isinstance(other, (tuple, list)):
            return self._cols.materialize() == tuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._cols.materialize())


class ColumnarIndex(InboxIndex):
    """An inbox index whose answers are counting passes over columns.

    Drop-in compatible with :class:`~repro.sim.inbox.InboxIndex`: the
    query methods that drive the paper's quorum counting (sender sets,
    payload tallies, surveys, per-sender buckets) read the columns
    directly; anything that genuinely needs message objects (per-kind
    bucket filters, restrictions, layering) falls through to the base
    implementation via the lazily materialized ``messages`` tuple.
    """

    __slots__ = ("_cols", "_by_sender_cols", "_by_instance_cols")

    def __init__(self, cols: RoundColumns):
        super().__init__(())
        # Unset the messages slot: reads fall into __getattr__, which
        # materializes on first genuine demand and re-fills the slot.
        del self.messages
        self._cols = cols
        self._by_sender_cols: dict[NodeId, tuple[Message, ...]] = {}
        self._by_instance_cols: dict[Hashable, tuple[Message, ...]] = {}

    def __getattr__(self, name: str):
        if name == "messages":
            materialized = self._cols.materialize()
            self.messages = materialized
            return materialized
        raise AttributeError(name)

    @property
    def columns(self) -> RoundColumns:
        return self._cols

    def message_view(self) -> ColumnarMessages:
        return ColumnarMessages(self._cols)

    # -- counting passes ------------------------------------------------
    @property
    def all_senders(self) -> frozenset[NodeId]:
        senders = self._all_senders
        if senders is None:
            senders = self._all_senders = self._cols.distinct_senders()
        return senders

    def sender_set(
        self, kind: str | None, payload: Any, instance: Any
    ) -> frozenset[NodeId]:
        if kind is None:
            if payload is _ANY and instance is _ANY:
                return self.all_senders
            return super().sender_set(kind, payload, instance)
        key = (kind, payload, instance)
        cached = self._sender_sets.get(key)
        if cached is None:
            if payload is _ANY:
                cached = self._cols.kind_senders(kind, instance)
            else:
                cached = self.payload_senders(kind, instance).get(
                    payload, frozenset()
                )
            self._sender_sets[key] = cached
        return cached

    def payload_senders(
        self, kind: str, instance: Any
    ) -> Mapping[Hashable, frozenset[NodeId]]:
        key = (kind, instance)
        cached = self._payload_senders.get(key)
        if cached is None:
            cached = self._payload_senders[key] = MappingProxyType(
                self._cols.payload_tally(kind, instance)
            )
        return cached

    # -- surveys --------------------------------------------------------
    @property
    def all_kinds(self) -> frozenset[str]:
        kinds = self._kinds
        if kinds is None:
            kinds = self._kinds = self._cols.present_kinds()
        return kinds

    @property
    def all_instances(self) -> frozenset[Hashable]:
        instances = self._instances
        if instances is None:
            instances = self._instances = frozenset(
                self.instance_tags()
            )
        return instances

    def instance_tags(self) -> tuple[Hashable, ...]:
        tags = self._instance_tags
        if tags is None:
            tags = self._instance_tags = self._cols.instance_survey()
        return tags

    # -- buckets that avoid whole-round materialization -----------------
    def sender_bucket(self, sender: NodeId) -> tuple[Message, ...]:
        if self._by_sender is not None:
            # Someone already materialized the full bucket map.
            return self._by_sender.get(sender, ())
        bucket = self._by_sender_cols.get(sender)
        if bucket is None:
            bucket = self._by_sender_cols[sender] = self._cols.sender_rows(
                sender
            )
        return bucket

    def instance_bucket(self, instance: Hashable) -> tuple[Message, ...]:
        if self._by_instance is not None:
            return self._by_instance.get(instance, ())
        bucket = self._by_instance_cols.get(instance)
        if bucket is None:
            bucket = self._by_instance_cols[instance] = (
                self._cols.instance_rows(instance)
            )
        return bucket
