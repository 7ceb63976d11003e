# repro-lint: disable-file=R302 -- benchmark timing; clocks never feed a run
"""End-to-end benchmark: RunSpec in, verdict out.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload consensus-large --seed 1 \\
        --seconds 20 --trace 0

``--workload all`` runs every workload in turn.  Each workload prints
one line per metric (name, value, unit) and, last, one JSON object::

    {"correct": true, "attempted": 5, "failed": 0, "metrics": {...}}

``--trace 0`` measures the end-to-end metrics with nothing traced;
``--trace 1`` reports the per-layer metrics from a traced pass over a
fixed spec list.  README.md beside this file defines every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
if not (SRC / "repro").is_dir():
    sys.exit(f"error: no repro package under {SRC}")
sys.path.insert(0, str(SRC))

import tracer  # noqa: E402
import workloads  # noqa: E402

#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_REPEATS = 5


class DeterminismError(Exception):
    """A count that a fixed spec must reproduce came out different."""


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest nearest-rank percentile with
    at least ten samples above it, but never below p90.

    Below 100 samples the ten-above rule falls under p90, so p90 (the
    maximum below 10 samples) is reported; the printed percentile and
    sample count say how thin the tail is.
    """
    ordered = sorted(values)
    count = len(ordered)
    rank = max(count - 10, math.ceil(0.9 * count))
    return ordered[rank - 1], 100.0 * rank / count


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ---------------------------------------------------------------------------
def setup_seconds(name: str, seed: int) -> float:
    runs = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), name, str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        runs.append(float(proc.stdout.split()[-1]))
    return statistics.median(runs)


def _median_rate(calls, work, per) -> float:
    return statistics.median(
        _ratio(work(call), per(call)) for call in calls
    )


def measure(workload, seed: int, seconds: float):
    setup = setup_seconds(workload.name, seed)
    if workload.name == "net-lockstep":
        run = workloads.run_net(workload, seed, seconds)
    else:
        workers = workloads.NPROC if workload.batch > 1 else 1
        run = workloads.run_sim(workload, seed, seconds, workers=workers)
    # A failed spec is fast, not good: it counts in no latency and no
    # throughput, only in the JSON's "failed".
    times = [s.seconds for s in run.samples if s.failure is None] or [0.0]
    tail_s, tail_pct = tail(times)
    own_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup, "s"),
        "specs_per_s": (
            _median_rate(run.calls, lambda c: c.passed, lambda c: c.wall_s),
            "specs/s",
        ),
        "spec_s_p50": (statistics.median(times), "s"),
        "spec_s_tail": (tail_s, "s"),
        "rounds_per_s": (
            _median_rate(run.calls, lambda c: c.rounds, lambda c: c.wall_s),
            "rounds/s",
        ),
        "messages_per_decision": (
            _ratio(
                sum(s.sends for s in run.samples),
                sum(s.decisions for s in run.samples),
            ),
            "count",
        ),
        "peak_rss_mib": ((own_kib + run.pool_rss_kib) / 1024.0, "MiB"),
        "net_cpu_ms_per_round": (
            1000.0
            * _median_rate(
                run.calls, lambda c: c.cpu_s, lambda c: c.cpu_rounds
            ),
            "ms",
        ),
    }
    notes = {
        "spec_s_tail": f"p{tail_pct:.1f} of {len(times)} specs",
        "spec_s_p50": f"{len(times)} specs",
        "specs_per_s": f"median of {len(run.calls)} calls",
    }
    return run, metrics, notes


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics
# ---------------------------------------------------------------------------
#: The passes of a traced run.  Each runs in its own interpreter: a spec
#: evaluated a second time in one process can run several times slower
#: (README.md, "Findings"), which would bill the program's own history
#: to the tracer.
PASSES = ("plain", "traced", "first", "pooled")


def one_pass(workload, seed: int, kind: str) -> dict:
    """Run pass *kind* of the traced run here; return it as JSON."""
    net = workload.name == "net-lockstep"
    calls = 1 if kind == "first" else workload.trace_calls
    spans = tracer.Tracer() if kind in ("traced", "first") else None
    observe = None
    if spans is not None and net:
        def observe(bus):
            return spans.observe_net(bus, workloads.NET_PERIOD)
    with spans or contextlib.nullcontext():
        start = time.perf_counter()
        if net:
            run = workloads.run_net(
                workload, seed, 0, calls=calls, observe=observe
            )
        elif kind == "first":
            spec = workloads.batch_specs(workload, seed, 0)[0]
            run = workloads.Measurement(attempted=1)
            try:
                workloads.campaign.evaluate_spec(spec)
            except Exception as exc:
                run.failures.append(f"raised {exc!r}")
        else:
            workers = workloads.NPROC if kind == "pooled" else 1
            run = workloads.run_sim(
                workload, seed, 0, calls=calls, workers=workers
            )
        wall = time.perf_counter() - start
    doc = {
        "wall_s": wall,
        "busy_s": sum(call.wall_s for call in run.calls),
        "attempted": run.attempted,
        "failures": run.failures,
        "counts": [sample.counts() for sample in run.samples],
        "threads_leaked": run.threads_leaked,
    }
    if spans is not None:
        self_s, counts = spans.totals()
        doc.update(
            self_s=self_s,
            tallies=counts,
            per_spec=spans.per_spec,
            round_ms=spans.round_ms,
            lag_ms=spans.lag_ms,
        )
    return doc


def _child_pass(workload, seed: int, kind: str) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            workload.name,
            "--seed",
            str(seed),
            "--pass",
            kind,
        ],
        capture_output=True,
        text=True,
        timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{kind} pass failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _check_same(what: str, first, second) -> None:
    if first != second:
        raise DeterminismError(
            f"{what} differ between two runs of the same specs: "
            f"{first} vs {second}"
        )


def trace(workload, seed: int):
    """Untraced and traced passes over one fixed spec list, plus checks."""
    net = workload.name == "net-lockstep"
    plain = _child_pass(workload, seed, "plain")
    traced = _child_pass(workload, seed, "traced")
    efficiency = 0.0
    if not net:
        _check_same(
            "(rounds, sends, decisions) per spec",
            plain["counts"],
            traced["counts"],
        )
        again = _child_pass(workload, seed, "first")
        _check_same(
            "traced counts of the first spec",
            traced["per_spec"][0],
            again["per_spec"][0],
        )
        if workload.batch > 1:
            pooled = _child_pass(workload, seed, "pooled")
            efficiency = _ratio(
                _ratio(pooled["attempted"], pooled["busy_s"]),
                workloads.NPROC
                * _ratio(plain["attempted"], plain["busy_s"]),
            )

    self_s, counts = traced["self_s"], traced["tallies"]
    round_ms, lag_ms = traced["round_ms"], traced["lag_ms"]
    wall = traced["wall_s"]
    metrics = {
        name: (self_s.get(name, 0.0), "s")
        for name in (
            "scenario.materialize_s",
            "sim.engine_self_s",
            "core.on_round_s",
            "core.tally_s",
            "adversary.on_round_s",
            "analysis.monitor_s",
            "analysis.checkers_s",
            "analysis.campaign.report_s",
            "net.codec_s",
        )
    }
    metrics.update(
        (name, (counts.get(name, 0), "count"))
        for name in (
            "scenario.materialize_calls",
            "sim.rounds",
            "sim.sends",
            "sim.materialized_messages",
            "sim.messages_built",
            "core.on_round_calls",
            "core.tally_builds",
            "adversary.sends",
            "net.frames",
            "net.frames_dropped",
        )
    )
    derives = counts.get("core.tally_derives", 0)
    metrics.update(
        {
            "sim.round_ms_p50": (
                statistics.median(round_ms) if round_ms else 0.0,
                "ms",
            ),
            "sim.round_ms_tail": (
                tail(round_ms)[0] if round_ms else 0.0,
                "ms",
            ),
            "core.tally_hit_ratio": (
                _ratio(derives - counts.get("core.tally_builds", 0), derives),
                "ratio",
            ),
            "analysis.campaign.parallel_efficiency": (efficiency, "ratio"),
            "net.frame_bytes": (counts.get("net.frame_bytes", 0), "bytes"),
            "net.round_lag_ms_tail": (
                tail(lag_ms)[0] if lag_ms else 0.0,
                "ms",
            ),
            "net.threads_leaked": (traced["threads_leaked"], "count"),
            "obs.trace_overhead_share": (
                _ratio(wall, plain["wall_s"]) - 1.0,
                "ratio",
            ),
            "bench.unattributed_s": (wall - sum(self_s.values()), "s"),
            "bench.traced_wall_s": (wall, "s"),
        }
    )
    run = workloads.Measurement(
        attempted=traced["attempted"], failures=traced["failures"]
    )
    return run, metrics, {}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------
def report(name: str, run, metrics: dict, notes: dict) -> None:
    failed_share = _ratio(run.failed, run.attempted)
    print(f"== {name}: {run.attempted} specs attempted, {run.failed} failed")
    for metric, (value, unit) in metrics.items():
        note = f"  ({notes[metric]})" if metric in notes else ""
        print(f"{name:18} {metric:38} {value:>16.6g} {unit}{note}")
    print(f"{name:18} {'failed_share':38} {failed_share:>16.6g} fraction")
    for failure in run.failures[:5]:
        print(f"  failure: {failure}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: one pass of a --trace 1 run, printed as JSON.
    parser.add_argument("--pass", dest="kind", choices=PASSES)
    args = parser.parse_args(argv)

    if args.kind is not None:
        workload = workloads.WORKLOADS[args.workload]
        print(json.dumps(one_pass(workload, args.seed, args.kind)))
        return 0

    if args.workload == "all":
        names = list(workloads.WORKLOADS)
    elif args.workload in workloads.WORKLOADS:
        names = [args.workload]
    else:
        parser.error(
            f"unknown workload {args.workload!r}; choose from "
            f"{', '.join(workloads.WORKLOADS)} or all"
        )

    status = 0
    for name in names:
        workload = workloads.WORKLOADS[name]
        try:
            if args.trace:
                outcome = trace(workload, args.seed)
            else:
                outcome = measure(workload, args.seed, args.seconds)
        except DeterminismError as exc:
            print(f"{name}: DETERMINISM CHECK FAILED: {exc}", file=sys.stderr)
            status = 1
            continue
        except Exception:
            print(f"{name}: benchmark error", file=sys.stderr)
            traceback.print_exc()
            status = 1
            continue
        report(name, *outcome)
    return status


if __name__ == "__main__":
    sys.exit(main())
