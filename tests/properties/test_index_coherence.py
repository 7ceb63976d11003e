"""Randomized coherence check: indexed Inbox queries vs naive scans.

Every :class:`~repro.sim.inbox.Inbox` query routes through a lazily
built — possibly shared, possibly layered — ``InboxIndex``.  The
contract is that indexing is invisible: for any message multiset
(duplicate senders, exact duplicate messages, instance tags, overlay
stacks, any cache-priming order) every query returns exactly what a
naive linear scan over the message tuple returns.

Randomization is seeded through :func:`repro.sim.rng.make_rng`, so every
failure here replays byte-for-byte from its seed.
"""

from repro.sim.columnar import ColumnarIndex, ColumnarPlane
from repro.sim.inbox import Inbox, InboxIndex
from repro.sim.message import Message
from repro.sim.rng import make_rng

KINDS = ("echo", "input", "prefer")
PAYLOADS = (0, 1, "v", None)
INSTANCES = (None, "x", ("t", 1))
SENDERS = tuple(range(6))

#: The query matrix both implementations are evaluated over.
QUERY_KINDS = (None,) + KINDS
QUERY_PAYLOADS = (...,) + PAYLOADS
QUERY_INSTANCES = (...,) + INSTANCES


def random_messages(rng, size):
    """A message list with duplicate senders and exact duplicates."""
    out = []
    while len(out) < size:
        out.append(
            Message(
                sender=rng.choice(SENDERS),
                kind=rng.choice(KINDS),
                payload=rng.choice(PAYLOADS),
                instance=rng.choice(INSTANCES),
            )
        )
        if rng.random() < 0.2:
            out.append(rng.choice(out))
    return out[:size]


# ----------------------------------------------------------------------
# The naive reference: plain linear scans, no caching anywhere.
# ----------------------------------------------------------------------
def naive_senders(messages, kind=None, payload=..., instance=...):
    return {
        m.sender for m in messages if m.matches(kind, payload, instance)
    }


def naive_tallies(messages, kind, instance=...):
    per_payload = {}
    for m in messages:
        if m.matches(kind, instance=instance):
            per_payload.setdefault(m.payload, set()).add(m.sender)
    return per_payload


def naive_best(messages, kind, instance=...):
    tallies = naive_tallies(messages, kind, instance)
    if not tallies:
        return (None, 0)
    payload, senders = max(
        tallies.items(), key=lambda item: (len(item[1]), repr(item[0]))
    )
    return payload, len(senders)


def assert_coherent(box, messages):
    """Run the full query matrix against the naive reference."""
    assert tuple(box) == tuple(messages)
    for kind in QUERY_KINDS:
        for payload in QUERY_PAYLOADS:
            for instance in QUERY_INSTANCES:
                expect = naive_senders(messages, kind, payload, instance)
                assert box.senders(kind, payload, instance) == expect
                assert box.count(kind, payload, instance) == len(expect)
                filtered = box.filter(kind, payload, instance)
                assert list(filtered) == [
                    m
                    for m in messages
                    if m.matches(kind, payload, instance)
                ]
    for kind in KINDS:
        for instance in QUERY_INSTANCES:
            tallies = naive_tallies(messages, kind, instance)
            counts = box.payload_counts(kind, instance)
            assert dict(counts) == {
                p: len(s) for p, s in tallies.items()
            }
            assert box.best_payload(kind, instance) == naive_best(
                messages, kind, instance
            )
    for sender in SENDERS:
        expect_msgs = [m for m in messages if m.sender == sender]
        assert list(box.from_sender(sender)) == expect_msgs
        assert box.received_from(sender) == bool(expect_msgs)
    assert box.kinds() == {m.kind for m in messages}
    assert box.instances() == {
        m.instance for m in messages if m.instance is not None
    }


class TestIndexCoherence:
    def test_indexed_queries_match_naive_scans(self):
        for seed in range(25):
            rng = make_rng(seed)
            messages = random_messages(rng, rng.randrange(0, 40))
            assert_coherent(Inbox(messages), messages)

    def test_cache_priming_order_is_irrelevant(self):
        # The index fills its caches on first demand; whichever query
        # arrives first (a tallying best_payload, a bucket filter, a
        # bare senders()) must leave every later answer unchanged.
        for seed in range(10):
            rng = make_rng(seed, salt=1)
            messages = random_messages(rng, 30)
            cold = Inbox(messages)
            primed = Inbox(messages)
            primed.best_payload("echo")
            primed.filter("input")
            primed.senders()
            primed.from_sender(0)
            assert_coherent(primed, messages)
            assert_coherent(cold, messages)

    def test_shared_index_views_agree(self):
        # Two Inbox views over one index (the engine's all-broadcast
        # path): queries on one prime caches the other then reuses, and
        # single-axis filters alias the very same sub-inbox object.
        for seed in range(10):
            rng = make_rng(seed, salt=2)
            messages = random_messages(rng, 30)
            index = InboxIndex(messages)
            first = Inbox(index=index)
            second = Inbox(index=index)
            first.best_payload("echo")
            first.senders("input")
            assert first.filter("echo") is second.filter("echo")
            assert first.from_sender(3) is second.from_sender(3)
            assert_coherent(second, messages)

    def test_layered_overlay_matches_flat_rebuild(self):
        # merged_with() layers extras over the base index; the result
        # must be indistinguishable from indexing base+extras from
        # scratch, and the base view must stay untouched.
        for seed in range(15):
            rng = make_rng(seed, salt=3)
            base_messages = random_messages(rng, rng.randrange(0, 25))
            extras = random_messages(rng, rng.randrange(1, 10))
            base = Inbox(base_messages)
            base.best_payload("echo")  # prime caches before layering
            merged = base.merged_with(extras)
            combined = list(base_messages) + list(extras)
            assert_coherent(merged, combined)
            assert_coherent(base, base_messages)

    def test_nested_overlays(self):
        rng = make_rng(7, salt=4)
        first = random_messages(rng, 12)
        second = random_messages(rng, 5)
        third = random_messages(rng, 5)
        box = Inbox(first).merged_with(second).merged_with(third)
        assert_coherent(box, first + second + third)

    def test_layering_nothing_returns_the_base_index(self):
        messages = [Message(1, "echo", "m")]
        base = Inbox(messages)
        assert InboxIndex.layered(base.index, ()) is base.index


# ----------------------------------------------------------------------
# Columnar round plane: staged columns vs the object path.
# ----------------------------------------------------------------------
def random_stream(rng, size):
    """A staging stream mixing scalar broadcasts, batched fan-outs,
    exact repeats, and batch/scalar collisions on one sender."""
    stream = []
    while len(stream) < size:
        sender = rng.choice(SENDERS)
        kind = rng.choice(KINDS)
        instance = rng.choice(INSTANCES)
        if rng.random() < 0.35:
            payloads = tuple(
                rng.choice(PAYLOADS)
                for _ in range(rng.randrange(1, 5))
            )
            stream.append(("batch", sender, kind, payloads, instance))
        else:
            stream.append(
                ("scalar", sender, kind, rng.choice(PAYLOADS), instance)
            )
        if rng.random() < 0.2:
            stream.append(rng.choice(stream))
    return stream[:size]


def stage_stream(stream, plane=None):
    """Stage a stream into fresh columns, exactly as the engine would."""
    plane = plane or ColumnarPlane()
    cols = plane.new_round()
    for entry in stream:
        if entry[0] == "scalar":
            _, sender, kind, payload, instance = entry
            cols.stage(sender, kind, payload, instance)
        else:
            _, sender, kind, payloads, instance = entry
            cols.stage_batch(
                sender, plane.intern_batch(kind, payloads, instance)
            )
    return cols


def expected_messages(stream):
    """The object path's staging outcome: per-round Message-set dedup
    over the expanded stream, in staging order."""
    seen, out = set(), []
    for entry in stream:
        if entry[0] == "scalar":
            _, sender, kind, payload, instance = entry
            expanded = [Message(sender, kind, payload, instance)]
        else:
            _, sender, kind, payloads, instance = entry
            expanded = [
                Message(sender, kind, p, instance) for p in payloads
            ]
        for message in expanded:
            if message not in seen:
                seen.add(message)
                out.append(message)
    return out


class TestColumnarCoherence:
    def test_columnar_index_matches_object_path(self):
        for seed in range(25):
            rng = make_rng(seed, salt=20)
            stream = random_stream(rng, rng.randrange(0, 40))
            cols = stage_stream(stream)
            messages = expected_messages(stream)
            assert list(cols.materialize()) == messages
            assert_coherent(Inbox(index=ColumnarIndex(cols)), messages)
            # The plain object index over the same messages agrees too
            # (both sides reduce to one oracle).
            assert_coherent(Inbox(messages), messages)

    def test_counting_queries_never_materialize(self):
        # Sender sets, tallies, and surveys are counting passes over the
        # columns; message objects exist only after someone iterates.
        for seed in range(10):
            rng = make_rng(seed, salt=21)
            stream = random_stream(rng, 30)
            cols = stage_stream(stream)
            messages = expected_messages(stream)
            box = Inbox(index=ColumnarIndex(cols))
            # kind=None with concrete filters falls back to the object
            # path, so the counting-only guarantee covers per-kind
            # queries plus the unfiltered sender census.
            assert box.senders() == naive_senders(messages)
            for kind in KINDS:
                for instance in QUERY_INSTANCES:
                    expect = naive_senders(
                        messages, kind, instance=instance
                    )
                    assert box.senders(kind, ..., instance) == expect
            for kind in KINDS:
                tallies = naive_tallies(messages, kind)
                assert dict(box.index.payload_senders(kind, ...)) == {
                    p: frozenset(s) for p, s in tallies.items()
                }
                assert box.best_payload(kind) == naive_best(
                    messages, kind
                )
            assert box.index.instance_tags() == tuple(
                dict.fromkeys(
                    m.instance
                    for m in messages
                    if m.instance is not None
                )
            )
            assert cols._materialized is None
            # Full coherence afterwards: materializing later must agree
            # with everything the counting passes already answered.
            assert_coherent(box, messages)

    def test_cross_form_duplicate_suppression(self):
        # scalar-then-batch, batch-then-scalar, identical re-broadcast,
        # and two overlapping batches must all match the object path.
        streams = [
            [
                ("scalar", 1, "echo", "p", None),
                ("batch", 1, "echo", ("p", "q"), None),
            ],
            [
                ("batch", 1, "echo", ("p", "q"), None),
                ("scalar", 1, "echo", "p", None),
                ("scalar", 1, "echo", "r", None),
            ],
            [
                ("batch", 2, "echo", ("a", "b"), "x"),
                ("batch", 2, "echo", ("a", "b"), "x"),
            ],
            [
                ("batch", 3, "echo", ("a", "b"), None),
                ("batch", 3, "echo", ("b", "c"), None),
                ("batch", 4, "echo", ("a", "b"), None),
            ],
            [
                ("batch", 5, "echo", ("a", "a", "b"), None),
            ],
        ]
        for stream in streams:
            cols = stage_stream(stream)
            messages = expected_messages(stream)
            assert list(cols.materialize()) == messages
            assert_coherent(Inbox(index=ColumnarIndex(cols)), messages)

    def test_large_scalar_round_over_two_kinds(self):
        # 4096+ single broadcasts in one round: the size where an
        # earlier revision switched to a separate array scan.  Every
        # row is a one-payload segment now; the answers must not care
        # how many there are.
        rng = make_rng(11, salt=23)
        stream = []
        for sender in range(1024):
            for kind in ("echo", "input"):
                for payload in rng.sample(PAYLOADS, 2):
                    stream.append(
                        ("scalar", sender, kind, payload,
                         rng.choice(INSTANCES))
                    )
                    if rng.random() < 0.1:
                        stream.append(rng.choice(stream))
        cols = stage_stream(stream)
        messages = expected_messages(stream)
        assert len(cols) == len(messages) >= 4096
        assert list(cols.materialize()) == messages
        assert_coherent(Inbox(index=ColumnarIndex(cols)), messages)

    def test_shared_payload_tuple_interns_one_batch(self):
        # The quorum plane hands every node the same tuple object; the
        # intern table must resolve them all to one canonical batch,
        # by identity or by value.
        plane = ColumnarPlane()
        shared = (1, 2, 3)
        first = plane.intern_batch("echo", shared, None)
        assert plane.intern_batch("echo", shared, None) is first
        assert plane.intern_batch("echo", (1, 2, 3), None) is first
        cols = plane.new_round()
        for sender in range(6):
            cols.stage_batch(sender, first)
        tally = cols.payload_tally("echo", ...)
        assert tally == {
            1: frozenset(range(6)),
            2: frozenset(range(6)),
            3: frozenset(range(6)),
        }
        # Homogeneous rounds share one sender frozenset across tags.
        assert tally[1] is tally[2] is tally[3]

    def test_batch_aliases_hold_only_canonical_tuples(self):
        plane = ColumnarPlane()
        canonical = (1, 2, 3)
        first = plane.intern_batch("echo", canonical, None)
        assert first.payloads is canonical
        # Equal tuples from many callers resolve by value and are not
        # retained: the alias map tracks batches, not callers.
        for _ in range(50):
            equal = tuple(list(canonical))
            assert equal is not canonical
            assert plane.intern_batch("echo", equal, None) is first
        assert len(plane._batch_aliases) == len(plane._batches) == 1
        # The same tuple object under another kind or instance is a
        # different batch, never the aliased one.
        other_kind = plane.intern_batch("init", canonical, None)
        other_instance = plane.intern_batch("echo", canonical, "i")
        assert other_kind is not first and other_kind.kind == "init"
        assert other_instance is not first
        assert other_instance.instance == "i"
        assert plane.intern_batch("echo", canonical, None) is first
        assert len(plane._batch_aliases) <= len(plane._batches) == 3

    def test_join_round_backfill_layering(self):
        # A joiner's direct extras layer over the shared columnar index
        # (the engine's join-round back-fill path): the overlay must be
        # indistinguishable from indexing broadcasts+extras flat.
        for seed in range(10):
            rng = make_rng(seed, salt=22)
            stream = random_stream(rng, 25)
            cols = stage_stream(stream)
            messages = expected_messages(stream)
            extras = tuple(random_messages(rng, rng.randrange(1, 8)))
            shared = ColumnarIndex(cols)
            merged = Inbox(index=InboxIndex.layered(shared, extras))
            assert_coherent(merged, messages + list(extras))
            # The shared view is untouched by the overlay.
            assert_coherent(Inbox(index=shared), messages)
