# repro-lint: disable-file=R302 -- benchmark timing; clocks never feed a run
"""One set-up of a workload, timed in a fresh interpreter.

Usage: ``python3 probe.py WORKLOAD SEED`` prints the seconds spent on
everything a workload does before its first spec runs: importing
``repro``, deriving and materializing the first call's specs, and
starting the campaign pool (churn-campaign) or the TCP listeners
(net-lockstep).  ``run.py`` runs it several times and reports the
median as ``setup_s``.
"""

import time

START = time.perf_counter()

import multiprocessing  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import repro.scenario as scenario_layer  # noqa: E402
import workloads  # noqa: E402
from repro.net import LocalCluster  # noqa: E402


def main(name: str, seed: int) -> float:
    workload = workloads.WORKLOADS[name]
    specs = workloads.batch_specs(workload, seed, 0)
    materialized = [scenario_layer.materialize(spec) for spec in specs]
    if workload.batch > 1:
        with multiprocessing.Pool(workloads.NPROC) as pool:
            pool.map(abs, range(workloads.NPROC))
    if name == "net-lockstep":
        first = materialized[0]
        cluster = LocalCluster(
            first.correct,
            first.protocol_factory,
            period=workloads.NET_PERIOD,
            max_rounds=specs[0].max_rounds,
            seed=specs[0].seed,
            byzantine=first.byzantine,
            strategy_factory=first.strategy_factory,
        )
        for peer in cluster.peers.values():
            peer.stop()
    return time.perf_counter() - START


if __name__ == "__main__":
    print(main(sys.argv[1], int(sys.argv[2])))
