# repro-lint: disable-file=R302 -- benchmark timing; clocks never feed a run
"""Layer spans for the traced run, recorded from outside the program.

:class:`Tracer` replaces the public entry points of each layer —
module functions and class methods — with timing wrappers while it is
installed, and puts the originals back on exit.  Nothing under
``src/`` changes.  A span's *self* time is its duration minus the part
covered by spans opened inside it, so the self times of all spans plus
the time outside every span add up to the traced wall time.

Spans and counters are kept per thread (the TCP runtime calls into the
protocols from its runner threads) and merged when read.
"""

from __future__ import annotations

import importlib
import pkgutil
import threading
import time
from collections import Counter
from typing import Callable

import repro.adversary
import repro.analysis.campaign as campaign
import repro.analysis.monitor as monitor
import repro.core
import repro.net.peer as peer
import repro.net.wire as wire
import repro.scenario as scenario_layer
import repro.scenario.build as build
from repro.sim.inbox import InboxIndex
from repro.sim.message import BatchSend, Message


def _classes_defining(package, method: str):
    """Classes of *package*'s modules that define *method* themselves."""
    names = [package.__name__]
    if hasattr(package, "__path__"):
        names += [
            f"{package.__name__}.{info.name}"
            for info in pkgutil.iter_modules(package.__path__)
        ]
    for name in names:
        module = importlib.import_module(name)
        for obj in vars(module).values():
            if (
                isinstance(obj, type)
                and obj.__module__ == module.__name__
                and method in obj.__dict__
                and not getattr(
                    obj.__dict__[method], "__isabstractmethod__", False
                )
            ):
                yield obj


class Tracer:
    """Span recorder over the layers a RunSpec reaches."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: list[tuple[Counter, Counter]] = []
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []
        self._round_start = 0.0
        #: Host milliseconds of each simulated round.
        self.round_ms: list[float] = []
        #: Lateness of each TCP runner round against its schedule (ms).
        self.lag_ms: list[float] = []
        #: Deterministic counts of each sim spec, in evaluation order.
        self.per_spec: list[dict[str, int]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = (Counter(), Counter(), [])
            with self._lock:
                self._threads.append(state[:2])
        return state

    def run_span(self, metric: str, fn, args, kwargs, calls=None):
        """Call *fn* inside a span whose self time goes to *metric*.

        *calls* names a counter bumped once per outermost entry, so a
        method calling its parent class's version counts once.
        """
        self_s, counts, stack = self._state()
        if calls is not None and (not stack or stack[-1][1] != metric):
            counts[calls] += 1
        frame = [0.0, metric]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += elapsed
            self_s[metric] += elapsed - frame[0]

    def timed(self, metric: str, fn, calls=None) -> Callable:
        def wrapper(*args, **kwargs):
            return self.run_span(metric, fn, args, kwargs, calls)

        return wrapper

    def count(self, name: str, amount: int = 1) -> None:
        self._state()[1][name] += amount

    def totals(self) -> tuple[Counter, Counter]:
        """(self seconds by metric, counts) summed over every thread."""
        self_s, counts = Counter(), Counter()
        with self._lock:
            for thread_self, thread_counts in self._threads:
                self_s.update(thread_self)
                counts.update(thread_counts)
        return self_s, counts

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def _patch(self, owner, name: str, replacement) -> None:
        if isinstance(owner, type):
            original = owner.__dict__[name]
        else:
            original = getattr(owner, name)
        setattr(owner, name, replacement)
        self._undo.append((owner, name, original))

    def __enter__(self) -> "Tracer":
        materialize = self.timed(
            "scenario.materialize_s",
            build.materialize,
            calls="scenario.materialize_calls",
        )
        self._patch(build, "materialize", materialize)
        self._patch(scenario_layer, "materialize", materialize)

        self._patch(campaign, "run_spec", self._engine(campaign.run_spec))
        self._patch(
            campaign, "evaluate_spec", self._evaluate(campaign.evaluate_spec)
        )
        for name in ("check_agreement", "check_chain_prefix",
                     "check_approx_agreement"):
            self._patch(
                campaign,
                name,
                self.timed("analysis.checkers_s", getattr(campaign, name)),
            )
        for name in ("run_campaign", "format_campaign_report"):
            self._patch(
                campaign,
                name,
                self.timed(
                    "analysis.campaign.report_s", getattr(campaign, name)
                ),
            )
        for cls in _classes_defining(monitor, "on_event"):
            self._patch(
                cls,
                "on_event",
                self.timed("analysis.monitor_s", cls.__dict__["on_event"]),
            )

        for cls in _classes_defining(repro.core, "on_round"):
            self._patch(
                cls,
                "on_round",
                self.timed(
                    "core.on_round_s",
                    cls.__dict__["on_round"],
                    calls="core.on_round_calls",
                ),
            )
        self._patch(InboxIndex, "derive", self._derive(InboxIndex.derive))
        for cls in _classes_defining(repro.adversary, "on_round"):
            self._patch(
                cls, "on_round", self._strategy(cls.__dict__["on_round"])
            )
        self._patch(Message, "__init__", self._counted_init(Message.__init__))

        self._patch(peer, "encode_frame", self._encode(peer.encode_frame))
        self._patch(
            wire, "decode_frame", self.timed("net.codec_s", wire.decode_frame)
        )
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    # ------------------------------------------------------------------
    # Wrappers with more than a span
    # ------------------------------------------------------------------
    def _engine(self, run_spec):
        """run_spec: the engine span, plus round timing off the run's bus."""

        def on_round_start(event) -> None:
            self._round_start = time.perf_counter()

        def on_round_end(event) -> None:
            self.round_ms.append(
                (time.perf_counter() - self._round_start) * 1000.0
            )

        def wrapper(spec, *, bus=None):
            if bus is not None:
                bus.subscribe(on_round_start, "round-start")
                bus.subscribe(on_round_end, "round-end")
            result = self.run_span(
                "sim.engine_self_s", run_spec, (spec,), {"bus": bus}
            )
            metrics = result.metrics
            self.count("sim.rounds", result.rounds)
            self.count("sim.sends", metrics.sends_total)
            self.count(
                "sim.materialized_messages", metrics.materialized_messages
            )
            return result

        return wrapper

    def _evaluate(self, evaluate_spec):
        """evaluate_spec: post-hoc verdict code, plus per-spec counts."""
        deterministic = (
            "sim.rounds",
            "sim.sends",
            "sim.messages_built",
            "core.on_round_calls",
        )

        def wrapper(spec):
            counts = self._state()[1]
            before = [counts[name] for name in deterministic]
            try:
                return self.run_span(
                    "analysis.checkers_s", evaluate_spec, (spec,), {}
                )
            finally:
                self.per_spec.append(
                    {
                        name: counts[name] - then
                        for name, then in zip(deterministic, before)
                    }
                )

        return wrapper

    def _derive(self, derive):
        """InboxIndex.derive: time the builds, count memo answers."""

        def wrapper(index, key, build_view):
            self.count("core.tally_derives")

            def timed_build(view_index):
                self.count("core.tally_builds")
                return self.run_span(
                    "core.tally_s", build_view, (view_index,), {}
                )

            return derive(index, key, timed_build)

        return wrapper

    def _strategy(self, on_round):
        """Strategy on_round: the adversary span, plus its logical sends."""

        def collect(strategy, view):
            sends = list(on_round(strategy, view))
            self.count(
                "adversary.sends",
                sum(
                    len(s.payloads) if type(s) is BatchSend else 1
                    for s in sends
                ),
            )
            return sends

        return self.timed("adversary.on_round_s", collect)

    def _counted_init(self, init):
        def wrapper(message, *args, **kwargs):
            self.count("sim.messages_built")
            init(message, *args, **kwargs)

        return wrapper

    def _encode(self, encode_frame):
        def wrapper(*args, **kwargs):
            frame = self.run_span("net.codec_s", encode_frame, args, kwargs)
            self.count("net.frames")
            self.count("net.frame_bytes", len(frame))
            return frame

        return wrapper

    # ------------------------------------------------------------------
    # TCP runtime observation
    # ------------------------------------------------------------------
    def observe_net(self, bus, period: float) -> Callable[[], None]:
        """Subscribe to one net spec's bus; call the result afterwards.

        Runner ``r`` of a cluster sharing one start instant should begin
        round ``k`` at the first round's start plus ``(k - 1)·period``;
        the returned callable turns each ``round-start`` into its
        lateness against that schedule.
        """
        starts: list[tuple[int, float]] = []
        bus.subscribe(
            lambda event: starts.append((event.round, time.monotonic())),
            "round-start",
        )
        bus.subscribe(
            lambda event: self.count("net.frames_dropped", event.count),
            "drop",
        )

        def done() -> None:
            first = [t for round_no, t in starts if round_no == 1]
            if not first:
                return
            origin = min(first)
            self.lag_ms.extend(
                (t - origin - (round_no - 1) * period) * 1000.0
                for round_no, t in starts
            )

        return done
