# repro-lint: disable-file=R302 -- benchmark timing; clocks never feed a run
"""The benchmark's workloads: spec lists and the closed loops that run them.

Every run starts from a :class:`~repro.scenario.RunSpec` whose seed is
``derive_seed(workload_seed, i)`` and ends at a verdict from the
program's own monitors.  Each loop is closed: the next spec (or batch)
starts only after the previous verdict, and a new one starts only while
the measuring window is open, so the window bounds the run.

The loops never trace a layer.  What they observe, they observe at the
boundary the benchmark owns: a :class:`ResultTap` over the campaign
module's ``evaluate_spec``/``run_spec`` names, and the event bus the
benchmark hands to :class:`~repro.net.LocalCluster`.
"""

from __future__ import annotations

import multiprocessing
import os
import resource
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable

import repro.analysis.campaign as campaign
import repro.scenario as scenario_layer
from repro.analysis.monitor import AgreementMonitor
from repro.errors import PropertyViolation
from repro.net import LocalCluster
from repro.obs.bus import EventBus
from repro.scenario import ChurnSpec, RunSpec
from repro.sim.message import BatchSend

#: CPUs this process may run on; the campaign pool gets one worker each.
NPROC = len(os.sched_getaffinity(0))

#: Lock-step round period Δ of the TCP runtime (LocalCluster's default).
NET_PERIOD = 0.05

#: Monitors whose verdict every spec of a protocol must carry.
EXPECTED_MONITORS = {
    "consensus": frozenset({"agreement", "termination"}),
    "total-order": frozenset(
        {"chain-prefix", "chain-growth", "finality-lag", "termination"}
    ),
}


@dataclass(frozen=True)
class Workload:
    """One input set: a base spec, how many specs one call carries, and
    how many calls the traced run makes (a fixed list, so its counts
    repeat exactly for a seed)."""

    name: str
    base: RunSpec
    batch: int
    trace_calls: int
    why: str


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "churn-campaign",
            # The E8b base spec (EXPERIMENTS.md): rate churn over rounds
            # 10-30, an event every 4 rounds through round 26.
            RunSpec(
                protocol="total-order",
                n=9,
                f=2,
                churn=ChurnSpec("rate", {"start": 10, "stop": 30}),
                protocol_params={"event_last": 26, "event_every": 4},
                max_rounds=48,
            ),
            50,
            1,
            "many tiny churn specs through run_campaign's pool: "
            "materialize, churn, chain monitors, per-instance overhead",
        ),
        Workload(
            "consensus-large",
            RunSpec(protocol="consensus", n=10000, inputs="alternating"),
            1,
            1,
            "one long all-correct round loop at n=10000: columnar "
            "delivery, shared quorum tally, per-node dispatch",
        ),
        Workload(
            "byzantine-rushing",
            # Unanimous inputs fix the run at 7 rounds for every seed.
            # With alternating inputs a seed takes 12, 17, 22 or more
            # rounds (about half take 12), so the median spec time of a
            # run flips between two levels with the seed mix.  The
            # splitter still splits every round's sends per recipient.
            RunSpec(
                protocol="consensus",
                n=200,
                f=66,
                inputs="constant:0",
                adversary="splitter",
                rushing=True,
            ),
            1,
            4,
            "a busy rushing splitter at n=200, f=66: direct sends, "
            "rushing fan-out expansion, adversary phase",
        ),
        Workload(
            "net-lockstep",
            # max_rounds is consensus's O(f) bound 2 + 5(2f + 4) at f=1;
            # it also caps how long the Byzantine runner outlives a spec.
            RunSpec(
                protocol="consensus",
                n=4,
                f=1,
                adversary="splitter",
                max_rounds=32,
            ),
            1,
            3,
            "the same consensus over loopback TCP: wire codec, peers, "
            "lock-step runners paced by the period",
        ),
    )
}


def batch_specs(workload: Workload, seed: int, index: int) -> list[RunSpec]:
    """The specs of call *index*: one spec, or one campaign's batch."""
    if workload.batch == 1:
        return [
            replace(workload.base, seed=campaign.derive_seed(seed, index))
        ]
    return campaign.build_specs(
        workload.base, workload.batch, campaign.derive_seed(seed, index)
    )


# ---------------------------------------------------------------------------
# Samples
# ---------------------------------------------------------------------------
@dataclass
class SpecSample:
    """One spec carried to its verdict."""

    seconds: float
    rounds: int = 0
    sends: int = 0
    decisions: int = 0
    failure: str | None = None

    def counts(self) -> tuple[int, int, int]:
        """The parts of the sample a fixed spec must reproduce exactly."""
        return (self.rounds, self.sends, self.decisions)


@dataclass
class Call:
    """One call into the program: a spec, or one run_campaign batch."""

    specs: int
    #: Specs of the call whose verdict held.
    passed: int
    #: Host seconds from the first RunSpec to the last verdict.
    wall_s: float
    #: Process CPU over the call, reaped pool workers included; on the
    #: TCP runtime it also covers the wait for the Byzantine runner.
    cpu_s: float
    #: Simulated rounds, or lock-step rounds on the TCP runtime (the
    #: slowest correct runner).
    rounds: int
    #: The rounds the CPU is charged to: simulated rounds, or every
    #: runner's rounds (Byzantine included) on the TCP runtime.
    cpu_rounds: int


@dataclass
class Measurement:
    """What one pass over a workload's spec list observed."""

    samples: list[SpecSample] = field(default_factory=list)
    calls: list[Call] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    #: Summed peak RSS of the pool workers of the largest batch.
    pool_rss_kib: int = 0
    threads_leaked: int = 0

    @property
    def failed(self) -> int:
        return len(self.failures)


def sample_failure(spec: RunSpec, row: dict, decisions: int) -> str | None:
    """Why *row*'s verdict fails *spec*, or None when every check held."""
    verdicts = row["verdicts"]
    missing = EXPECTED_MONITORS.get(spec.protocol, frozenset()) - set(
        verdicts
    )
    if missing:
        return f"monitors {sorted(missing)} gave no verdict"
    broken = {name: msg for name, msg in verdicts.items() if msg is not None}
    if broken:
        return "; ".join(f"{name}: {msg}" for name, msg in broken.items())
    if spec.protocol == "consensus" and decisions != spec.n - spec.f:
        return f"{decisions} of {spec.n - spec.f} correct nodes decided"
    return None


def _cpu_s() -> float:
    """Process CPU so far, reaped children (pool workers) included."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class ResultTap:
    """Samples every spec the campaign module evaluates.

    Installed over :mod:`repro.analysis.campaign`'s ``evaluate_spec``
    and ``run_spec`` names, so it sees the specs ``run_campaign`` runs
    as well as direct calls.  Pool workers inherit it through ``fork``
    and send their samples back over *queue*; nothing inside a run is
    traced.
    """

    def __init__(self, queue=None) -> None:
        self.samples: list[SpecSample] = []
        self._queue = queue
        self._pid = os.getpid()
        self._last: tuple[int, int, int] | None = None
        self._saved: tuple[Callable, Callable] | None = None

    def __enter__(self) -> "ResultTap":
        self._saved = (campaign.evaluate_spec, campaign.run_spec)
        campaign.evaluate_spec = self._evaluate_spec
        campaign.run_spec = self._run_spec
        return self

    def __exit__(self, *exc_info) -> None:
        campaign.evaluate_spec, campaign.run_spec = self._saved

    def _run_spec(self, spec: RunSpec, *, bus=None):
        result = self._saved[1](spec, bus=bus)
        metrics = result.metrics
        self._last = (result.rounds, metrics.sends_total, metrics.decisions)
        return result

    def _evaluate_spec(self, spec: RunSpec) -> dict:
        self._last = None
        start = time.perf_counter()
        try:
            row = self._saved[0](spec)
        except Exception as exc:
            self._emit(
                SpecSample(
                    time.perf_counter() - start, failure=f"raised {exc!r}"
                )
            )
            raise
        seconds = time.perf_counter() - start
        rounds, sends, decisions = self._last or (0, 0, 0)
        if spec.protocol == "total-order":
            # Total-order nodes never halt; a decision is an entry of
            # the longest finalized chain.
            decisions = row["chain_length"] or 0
        self._emit(
            SpecSample(
                seconds,
                rounds,
                sends,
                decisions,
                sample_failure(spec, row, decisions),
            )
        )
        return row

    def _emit(self, sample: SpecSample) -> None:
        if os.getpid() == self._pid:
            self.samples.append(sample)
        else:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            self._queue.put((os.getpid(), rss, sample))

    def drain(self) -> dict[int, int]:
        """Collect worker samples; returns each worker's peak RSS (KiB)."""
        peaks: dict[int, int] = {}
        while self._queue is not None and not self._queue.empty():
            pid, rss, sample = self._queue.get()
            peaks[pid] = max(peaks.get(pid, 0), rss)
            self.samples.append(sample)
        return peaks


# ---------------------------------------------------------------------------
# The loops
# ---------------------------------------------------------------------------
def _window(seconds: float, calls: int | None) -> Callable[[int], bool]:
    """Whether call *i* runs: within the time window, or the first
    *calls* calls when a pass must repeat another pass's spec list."""
    if calls is not None:
        return lambda index: index < calls
    deadline = time.perf_counter() + seconds
    return lambda index: index == 0 or time.perf_counter() < deadline


def run_sim(
    workload: Workload,
    seed: int,
    seconds: float,
    calls: int | None = None,
    workers: int = 1,
) -> Measurement:
    """Carry specs through ``evaluate_spec`` (or ``run_campaign``)."""
    out = Measurement()
    queue = multiprocessing.SimpleQueue() if workers > 1 else None
    more = _window(seconds, calls)
    with ResultTap(queue) as tap:
        while more(len(out.calls)):
            index = len(out.calls)
            out.attempted += workload.batch
            first = len(tap.samples)
            cpu = _cpu_s()
            start = time.perf_counter()
            if workload.batch == 1:
                _evaluate_one(batch_specs(workload, seed, index)[0])
                failures = []
            else:
                failures = _campaign_batch(
                    workload, campaign.derive_seed(seed, index), workers
                )
            wall = time.perf_counter() - start
            cpu = _cpu_s() - cpu
            peaks = tap.drain()
            out.pool_rss_kib = max(out.pool_rss_kib, sum(peaks.values()))
            batch = tap.samples[first:]
            failures = failures or [s.failure for s in batch if s.failure]
            out.failures.extend(failures)
            rounds = sum(s.rounds for s in batch)
            out.calls.append(
                Call(
                    workload.batch,
                    workload.batch - len(failures),
                    wall,
                    cpu,
                    rounds,
                    rounds,
                )
            )
        out.samples = tap.samples
    if queue is not None:
        queue.close()
    return out


def _evaluate_one(spec: RunSpec) -> None:
    try:
        campaign.evaluate_spec(spec)
    except Exception:
        pass  # the tap recorded the exception as the spec's failure


def _campaign_batch(
    workload: Workload, campaign_seed: int, workers: int
) -> list[str]:
    """One run_campaign call; failures if its report is lost or bad."""
    runs = workload.batch
    try:
        report = campaign.run_campaign(
            workload.base,
            runs=runs,
            campaign_seed=campaign_seed,
            workers=workers,
        )
        campaign.format_campaign_report(report)
    except Exception as exc:
        return [f"campaign raised {exc!r}"] * runs
    for name in EXPECTED_MONITORS[workload.base.protocol]:
        checked = report.monitors.get(name, {}).get("checked", 0)
        if checked != runs:
            return [f"monitor {name} checked {checked} of {runs}"] * runs
    violating = sorted({record["index"] for record in report.violations})
    return [f"campaign spec {index} violated" for index in violating]


class _RecordingAgreement:
    """An AgreementMonitor that records its violation instead of
    raising it inside a runner thread."""

    def __init__(self, correct_ids) -> None:
        self.monitor = AgreementMonitor(nodes=set(correct_ids))
        self.violation: str | None = None

    def on_event(self, event) -> None:
        try:
            self.monitor.on_event(event)
        except PropertyViolation as exc:
            self.violation = self.violation or str(exc)


class _SendCounter:
    """Counts logical sends, the Byzantine ones included.

    Correct runners publish their sends on the bus; the net runtime's
    Byzantine runner publishes nothing, so its strategy is wrapped.
    Runner threads count concurrently, hence the lock.
    """

    def __init__(self, factory) -> None:
        self.factory = factory
        self.sends = 0
        self._lock = threading.Lock()

    def add(self, count: int) -> None:
        with self._lock:
            self.sends += count

    def on_send(self, event) -> None:
        self.add(1)

    def __call__(self, node_id, index) -> "_CountedStrategy":
        return _CountedStrategy(self.factory(node_id, index), self)


class _CountedStrategy:
    def __init__(self, strategy, counter: _SendCounter) -> None:
        self.strategy = strategy
        self.counter = counter

    def on_round(self, view) -> list:
        sends = list(self.strategy.on_round(view))
        self.counter.add(
            sum(len(s.payloads) if type(s) is BatchSend else 1 for s in sends)
        )
        return sends


def run_net(
    workload: Workload,
    seed: int,
    seconds: float,
    calls: int | None = None,
    observe: Callable | None = None,
) -> Measurement:
    """Carry specs through LocalCluster over loopback TCP.

    *observe(bus)* may subscribe to each spec's bus before it runs and
    returns a callable invoked once the spec's threads are gone.
    """
    out = Measurement()
    more = _window(seconds, calls)
    while more(len(out.calls)):
        spec = batch_specs(workload, seed, len(out.calls))[0]
        out.attempted += 1
        threads_before = threading.active_count()
        cpu = time.process_time()
        start = time.perf_counter()
        try:
            sample, cluster, done = _net_spec(spec, observe)
        except Exception as exc:
            sample = SpecSample(
                time.perf_counter() - start, failure=f"raised {exc!r}"
            )
            cluster = done = None
        # LocalCluster.run joins only the correct runners; wait for the
        # Byzantine runner to reach max_rounds so its CPU is billed here
        # and not to the next spec.
        deadline = time.perf_counter() + spec.max_rounds * NET_PERIOD + 2.0
        while (
            threading.active_count() > threads_before
            and time.perf_counter() < deadline
        ):
            time.sleep(0.01)
        out.threads_leaked += max(
            0, threading.active_count() - threads_before
        )
        cpu = time.process_time() - cpu
        runner_rounds = 0
        if cluster is not None:
            runner_rounds = sum(
                runner.round
                for runner in (
                    *cluster.runners.values(),
                    *cluster.byzantine_runners.values(),
                )
            )
        if done is not None:
            done()
        out.calls.append(
            Call(
                1,
                int(sample.failure is None),
                sample.seconds,
                cpu,
                sample.rounds,
                runner_rounds,
            )
        )
        out.samples.append(sample)
        if sample.failure:
            out.failures.append(sample.failure)
    return out


def _net_spec(spec: RunSpec, observe):
    start = time.perf_counter()
    materialized = scenario_layer.materialize(spec)
    bus = EventBus()
    strategies = _SendCounter(materialized.strategy_factory)
    bus.subscribe(strategies.on_send, "send")
    cluster = LocalCluster(
        materialized.correct,
        materialized.protocol_factory,
        period=NET_PERIOD,
        max_rounds=spec.max_rounds,
        seed=spec.seed,
        byzantine=materialized.byzantine,
        strategy_factory=strategies,
        bus=bus,
    )
    monitor = _RecordingAgreement(cluster.correct_ids)
    bus.subscribe(monitor.on_event, "protocol")
    done = observe(bus) if observe is not None else None
    outputs = cluster.run(timeout=spec.max_rounds * NET_PERIOD + 5.0)
    correct = len(cluster.correct_ids)
    failure = monitor.violation
    if failure is None and len(outputs) != correct:
        failure = f"{len(outputs)} of {correct} correct nodes decided"
    if failure is None and len(monitor.monitor.decisions) != correct:
        failure = (
            f"agreement monitor saw {len(monitor.monitor.decisions)} of "
            f"{correct} decisions"
        )
    seconds = time.perf_counter() - start
    rounds = max(r.round for r in cluster.runners.values())
    sample = SpecSample(
        seconds, rounds, strategies.sends, len(outputs), failure
    )
    return sample, cluster, done
