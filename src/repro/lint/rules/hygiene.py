"""R4xx — protocol hygiene (paper §3; src/repro/sim/node.py).

The model's unforgeable-sender guarantee is implemented by a single
choke point: protocols describe sends through
:class:`~repro.sim.node.NodeApi`, and the *network* stamps the sender
id (``Send.stamped``) at delivery.  A protocol that builds an
:class:`~repro.sim.message.Outbox` itself, pokes the api's private
state, or stamps messages directly would bypass the prior-contact check
on direct sends and could forge sender identities — exactly what the
paper assumes impossible.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import FileContext, Rule

PROTOCOL_LAYERS = ("core", "baselines")

#: NodeApi / engine internals that protocol code must not reach into.
#: ``_trace_sink`` is the api's handle onto the event plane — grabbing
#: it would let a protocol publish events the engine never produced.
PRIVATE_ATTRS = frozenset(
    {"_outbox", "_known_contacts", "_nodes", "_trace_sink"}
)

#: Inbox / InboxIndex internals.  The engine shares one index across all
#: recipients of a round's broadcasts; protocol code that reaches past
#: the query methods could observe (or worse, mutate) cache state that
#: other nodes alias.  ``_derived`` and ``_restrictions`` are the
#: quorum-tally plane's memo tables — protocols populate them only
#: through ``derive()`` / ``restricted_to()``, never by direct access
#: (a write would leak one node's per-node state into every aliasing
#: recipient).  ``_best`` is deliberately absent: it is also a
#: legitimate protocol-layer method name (EarlyConsensus._best).
INBOX_PRIVATE_ATTRS = frozenset(
    {"_messages", "_index", "_derived", "_restrictions"}
)

#: Columnar round-plane internals (src/repro/sim/columnar.py).  The
#: engine stages every broadcast of a round into one shared segment
#: store; a ColumnarIndex is a lazy view over it.
#: Protocol code that reads the raw segments, the payload/kind/instance
#: intern tables, or the staging dedup state would couple itself to the
#: storage layout (and any write would corrupt every aliasing
#: recipient).  Protocols see messages, never columns.
COLUMNAR_PRIVATE_ATTRS = frozenset(
    {
        "_cols",
        "_columns",
        "_payload_ids",
        "_kind_ids",
        "_instance_ids",
        "_batches",
        "_batch_aliases",
        "_sender_payloads",
        "_materialized",
    }
)

#: Public on the columnar types for the *engine's* sake, but off-limits
#: to protocols when reached through an inbox's index.
COLUMNAR_VIEW_ATTRS = frozenset({"columns", "plane"})

#: Committee-dissemination internals (src/repro/core/implicit_agreement
#: .py).  ``_gossip`` is a protocol's private OutcomeGossip state and
#: the vote tables inside it are cumulative per-node folds; other
#: protocol code that read or wrote them would couple itself to the
#: dissemination bookkeeping (and could fake an adoption quorum).  Only
#: the defining module touches these.
COMMITTEE_PRIVATE_ATTRS = frozenset(
    {
        "_gossip",
        "_size_override",
        "decision_votes",
        "outcome_votes",
        "linger_left",
        "last_query",
    }
)


class OutboxInProtocol(Rule):
    """R401: protocols never import or construct an Outbox."""

    code = "R401"
    name = "outbox-in-protocol"
    description = (
        "protocol code may not import or instantiate Outbox; sends go "
        "through NodeApi.broadcast / NodeApi.send"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_layer(*PROTOCOL_LAYERS)

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and any(
                alias.name == "Outbox" for alias in node.names
            ):
                yield ctx.diagnostic(
                    node,
                    self.code,
                    "importing Outbox into protocol code bypasses the "
                    "NodeApi send discipline",
                    hint="use api.broadcast / api.send",
                )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "Outbox"
            ):
                yield ctx.diagnostic(
                    node,
                    self.code,
                    "protocol code constructs an Outbox directly",
                    hint="use api.broadcast / api.send",
                )


class PrivateApiAccess(Rule):
    """R402: no reaching into NodeApi/engine private state."""

    code = "R402"
    name = "private-api-access"
    description = (
        "protocol code may not touch NodeApi/engine internals "
        "(_outbox, _known_contacts, _nodes, _trace_sink)"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_layer(*PROTOCOL_LAYERS)

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in PRIVATE_ATTRS
            ):
                yield ctx.diagnostic(
                    node,
                    self.code,
                    f"'.{node.attr}' is private engine/api state; the "
                    "prior-contact and stamping guarantees depend on it "
                    "staying untouched",
                    hint="use NodeApi.knows / NodeApi.send",
                )


class SenderStamping(Rule):
    """R403: only the network stamps sender ids onto the wire."""

    code = "R403"
    name = "sender-stamping"
    description = (
        "protocol code may not call .stamped(); sender ids are applied "
        "by the network so they cannot be forged"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_layer(*PROTOCOL_LAYERS)

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "stamped"
            ):
                yield ctx.diagnostic(
                    node,
                    self.code,
                    "calling .stamped() in protocol code forges the "
                    "network's sender-stamping step",
                    hint="the engine stamps senders at delivery",
                )


class InboxInternalsAccess(Rule):
    """R404: protocols query inboxes, never their shared internals."""

    code = "R404"
    name = "inbox-internals-access"
    description = (
        "protocol code may not touch Inbox/InboxIndex internals "
        "(_messages, _index, the _derived/_restrictions tally-plane "
        "memos, or index cache attributes); the index is shared across "
        "every recipient of a round's broadcasts"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_layer(*PROTOCOL_LAYERS)

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute):
                continue
            if node.attr in INBOX_PRIVATE_ATTRS:
                yield ctx.diagnostic(
                    node,
                    self.code,
                    f"'.{node.attr}' is private Inbox/InboxIndex state, "
                    "aliased across nodes by the shared per-round index",
                    hint="use filter/senders/count/best_payload/derive/"
                    "restricted_to/merged_with",
                )
            elif (
                node.attr.startswith("_")
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "index"
            ):
                yield ctx.diagnostic(
                    node,
                    self.code,
                    f"'.index.{node.attr}' reaches into the shared "
                    "InboxIndex cache internals",
                    hint="use the Inbox query methods",
                )


class ColumnarInternalsAccess(Rule):
    """R405: protocols see messages, never the columnar round plane."""

    code = "R405"
    name = "columnar-internals-access"
    description = (
        "protocol code may not touch columnar round-plane internals "
        "(_cols/_columns, the payload/kind/instance intern tables, "
        "staging dedup state, or index.columns/index.plane); the "
        "columns are one shared per-round store and protocols must "
        "stay storage-agnostic"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_layer(*PROTOCOL_LAYERS)

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute):
                continue
            if node.attr in COLUMNAR_PRIVATE_ATTRS:
                yield ctx.diagnostic(
                    node,
                    self.code,
                    f"'.{node.attr}' is columnar round-plane storage, "
                    "shared by every recipient of the round's broadcasts",
                    hint="use the Inbox query methods; the columnar "
                    "plane is an engine implementation detail",
                )
            elif node.attr in COLUMNAR_VIEW_ATTRS and (
                isinstance(node.value, ast.Attribute)
                and node.value.attr == "index"
            ):
                yield ctx.diagnostic(
                    node,
                    self.code,
                    f"'.index.{node.attr}' exposes the raw column "
                    "store behind the shared per-round index",
                    hint="use the Inbox query methods",
                )


class CommitteeInternalsAccess(Rule):
    """R406: committee dissemination state stays in its own module."""

    code = "R406"
    name = "committee-internals-access"
    description = (
        "protocol code outside core/implicit_agreement.py may not touch "
        "the sampled variants' dissemination internals (_gossip, "
        "_size_override, or the OutcomeGossip vote tables); adoption "
        "goes through the decision/outcome message quorums, never by "
        "reading another protocol object's bookkeeping"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_layer(*PROTOCOL_LAYERS) and not ctx.is_module(
            "core/implicit_agreement.py"
        )

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in COMMITTEE_PRIVATE_ATTRS
            ):
                yield ctx.diagnostic(
                    node,
                    self.code,
                    f"'.{node.attr}' is committee-dissemination state "
                    "private to core/implicit_agreement.py",
                    hint="adopt outcomes via the decision/outcome "
                    "message quorums",
                )
