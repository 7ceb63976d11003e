"""Command-line interface: ``repro`` (or ``python -m repro``).

Subcommands:

* ``repro run <protocol>`` — one seeded run of any core protocol against
  a chosen adversary, with the outcome and metrics printed; accepts
  ``--scenario FILE`` to replay a serialized :class:`RunSpec` instead
  (e.g. a campaign violation artifact);
* ``repro sweep <protocol>`` — a resiliency sweep over ``f`` for a fixed
  population, printing the success-rate table;
* ``repro matrix <protocol>`` — every registered adversary, one table;
* ``repro campaign [protocol]`` — a Monte Carlo churn campaign: many
  seed-derived RunSpecs in a worker pool, per-monitor violation rates;
* ``repro record <protocol>`` — record a run to JSONL, or verify one;
* ``repro demo impossibility`` — the §9 partition/embedding experiments;
* ``repro lint`` — the static model-invariant checker (``repro.lint``).

Every run is constructed through :mod:`repro.scenario` — the CLI never
assembles populations by hand (lint rule R502 enforces this), so
anything it runs can be serialized, shared, and replayed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import Hashable

from repro.adversary import STRATEGY_BUILDERS
from repro.analysis.checkers import (
    CheckReport,
    check_agreement,
    check_chain_prefix,
)
from repro.analysis.report import format_table
from repro.analysis.sweep import sweep
from repro.asyncsim import run_async_partition, run_semisync_embedding
from repro.errors import SimulationError
from repro.scenario import (
    CHURN_KINDS,
    ChurnSpec,
    PROTOCOLS,
    RunSpec,
    SAMPLED_PROTOCOLS,
    materialize,
    run_spec,
)


def _parse_params(pairs) -> dict:
    """``key=value`` pairs -> dict, values parsed as JSON when possible."""
    params: dict = {}
    for pair in pairs or ():
        key, sep, raw = pair.partition("=")
        if not sep:
            raise SystemExit(f"expected key=value, got {pair!r}")
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return params


def _spec_from_args(
    args, f_override: int | None = None, seed: int = 0
) -> RunSpec:
    byzantine = args.f if f_override is None else f_override
    churn = None
    churn_kind = getattr(args, "churn", None)
    if churn_kind and churn_kind != "none":
        churn = ChurnSpec(
            churn_kind, _parse_params(getattr(args, "churn_param", None))
        )
    return RunSpec(
        protocol=args.protocol,
        n=args.n,
        f=byzantine,
        variant=getattr(args, "variant", "full"),
        protocol_params=_parse_params(getattr(args, "protocol_param", None)),
        adversary=args.adversary,
        churn=churn,
        seed=seed,
        rushing=args.rushing,
        max_rounds=args.max_rounds,
        enforce_resiliency=not args.force,
    )


def _judge(spec: RunSpec, result) -> CheckReport:
    """The protocol-appropriate pass/fail report for one finished run."""
    if spec.protocol == "total-order":
        chains = {
            nid: (list(p.output) if p.halted else p.chain)
            for nid, p in result.network.protocols().items()
        }
        return check_chain_prefix(chains)
    if spec.protocol == "reliable-broadcast":
        # No decide events to compare; acceptance properties have their
        # own checker requiring the sender tag — out of run's scope.
        return CheckReport("reliable-broadcast")
    return check_agreement(result)


def cmd_run(args) -> int:
    if args.scenario:
        spec = RunSpec.load(args.scenario)
        if args.seed is not None:
            spec = replace(spec, seed=args.seed)
    elif args.protocol is None:
        raise SystemExit("run: need a protocol or --scenario FILE")
    else:
        spec = _spec_from_args(args, seed=args.seed or 0)
    sink = None
    bus = None
    if args.events:
        from repro.obs import EventBus

        bus = EventBus()
        sink = bus.to_jsonl(args.events)
    try:
        result = run_spec(spec, bus=bus)
    finally:
        if sink is not None:
            sink.close()
    print(f"scenario : {spec.label()}")
    print(f"rounds   : {result.rounds}")
    print(f"messages : {result.metrics.sends_total}")
    if result.metrics.decisions:
        print(
            "economy  : "
            f"{result.metrics.messages_per_decision:.2f} msgs/decision "
            f"over {result.metrics.decisions} decisions"
        )
    print(f"outputs  : {result.outputs}")
    report = _judge(spec, result)
    print(f"{report.name}: {'OK' if report.ok else report.violations}")
    if sink is not None:
        print(f"events   : {sink.count} -> {args.events}")
    if args.timeline:
        from repro.analysis.timeline import render_timeline

        print()
        print(render_timeline(result.trace, result.correct_ids))
    return 0 if report.ok else 1


def cmd_sweep(args) -> int:
    def build(point: Hashable, seed: int) -> RunSpec:
        return _spec_from_args(args, f_override=point, seed=seed)

    outcome = sweep(
        points=range(0, args.max_f + 1),
        build=build,
        judge=lambda r: check_agreement(r).ok,
        seeds=range(args.seeds),
    )
    for row in outcome.rows:
        row["f"] = row.pop("point")
        row["n>3f"] = "yes" if args.n > 3 * row["f"] else "no"
    print(
        format_table(
            outcome.rows,
            columns=["f", "n>3f", "ok%", "rounds(mean)", "msgs(mean)"],
            title=f"{args.protocol}, n={args.n}, adversary={args.adversary}",
        )
    )
    return 0


def cmd_matrix(args) -> int:
    """Run every registered adversary against one protocol."""
    rows = []
    for name in STRATEGY_BUILDERS:
        agreed = 0
        rounds = []
        for seed in range(args.seeds):
            spec = replace(
                _spec_from_args(args, seed=seed),
                adversary=name,
                rushing=True,
            )
            try:
                result = run_spec(spec)
            except SimulationError:
                # Booked as a liveness failure at the round budget, as
                # sweep() does; any other exception is a crash and
                # propagates.
                rounds.append(args.max_rounds)
                continue
            agreed += check_agreement(result).ok
            rounds.append(result.rounds)
        rows.append(
            {
                "adversary": name,
                "ok%": round(100 * agreed / args.seeds, 1),
                "rounds(max)": max(rounds),
            }
        )
    print(
        format_table(
            rows,
            title=f"{args.protocol}: adversary matrix, n={args.n} "
            f"f={args.f}, rushing",
        )
    )
    return 0 if all(r["ok%"] == 100.0 for r in rows) else 1


def cmd_campaign(args) -> int:
    from repro.analysis.campaign import format_campaign_report, run_campaign

    if args.scenario:
        base = RunSpec.load(args.scenario)
    else:
        base = _spec_from_args(args)
    report = run_campaign(
        base,
        runs=args.runs,
        campaign_seed=args.campaign_seed,
        workers=args.workers,
        artifacts_dir=args.artifacts,
    )
    print(format_campaign_report(report))
    if args.out:
        report.save(args.out)
        print(f"report   : {args.out}")
    if report.violations:
        print(f"VIOLATIONS: {len(report.violations)}")
        for record in report.violations[:10]:
            print(
                f"  run {record['index']} seed {record['seed']} "
                f"[{record['monitor']}] {record['message']}"
            )
            if "artifact" in record:
                print(f"    replay: repro run --scenario {record['artifact']}")
    return 0 if report.ok else 1


def cmd_record(args) -> int:
    from repro.sim.replay import RunRecording, record_scenario, verify_replay

    scenario = materialize(_spec_from_args(args, seed=args.seed))
    if args.verify:
        recording = RunRecording.load(args.verify)
        differences = verify_replay(scenario, recording)
        if differences:
            print("REPLAY MISMATCH:")
            for difference in differences:
                print(f"  {difference}")
            return 1
        print(
            f"replay of {args.verify} matches: "
            f"{len(recording.deliveries)} deliveries, "
            f"{recording.rounds} rounds, outputs identical"
        )
        return 0
    result, recording = record_scenario(scenario)
    recording.save(args.out)
    print(f"recorded {len(recording.deliveries)} deliveries over "
          f"{result.rounds} rounds -> {args.out}")
    return 0


def cmd_demo(args) -> int:
    if args.what == "impossibility":
        r = run_async_partition()
        print("Lemma 9.1 (asynchronous partition):")
        print(f"  decisions        : {r.decisions}")
        print(f"  disagreement     : {r.disagreement}")
        print(f"  indistinguishable: {r.indistinguishable}")
        s = run_semisync_embedding()
        print("Lemma 9.2 (semi-synchronous embedding):")
        print(f"  delta_a={s.delta_a} delta_b={s.delta_b} delta_s={s.delta_s}")
        print(f"  decisions        : {s.decisions}")
        print(f"  disagreement     : {s.disagreement}")
        print(f"  indistinguishable: {s.indistinguishable}")
        return 0
    raise SystemExit(f"unknown demo {args.what!r}")


def cmd_lint(args) -> int:
    """Delegate to :mod:`repro.lint` (``repro lint [lint options]``)."""
    from repro.lint.cli import main as lint_main

    return lint_main(args.rest)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Byzantine agreement with unknown participants and failures "
            "(PODC 2020) — simulation toolkit"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, protocol_optional: bool = False):
        if protocol_optional:
            p.add_argument("protocol", nargs="?", choices=PROTOCOLS)
        else:
            p.add_argument("protocol", choices=PROTOCOLS)
        p.add_argument("--n", type=int, default=10, help="total nodes")
        p.add_argument("--f", type=int, default=3, help="Byzantine nodes")
        p.add_argument(
            "--adversary",
            default="silent",
            choices=STRATEGY_BUILDERS,
        )
        p.add_argument("--rushing", action="store_true")
        p.add_argument("--max-rounds", type=int, default=500)
        p.add_argument(
            "--variant",
            choices=("full", "sampled"),
            default="full",
            help="'sampled' runs the committee-sampled variant "
            f"({'/'.join(SAMPLED_PROTOCOLS)} only): a polylog committee "
            "decides, everyone else adopts via implicit agreement",
        )
        p.add_argument(
            "--protocol-param",
            action="append",
            metavar="KEY=VALUE",
            help="protocol-specific knob (JSON value), repeatable",
        )
        p.add_argument(
            "--force",
            action="store_true",
            help="allow configurations violating n > 3f",
        )

    run_p = sub.add_parser("run", help="one seeded run")
    common(run_p, protocol_optional=True)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument(
        "--scenario",
        default=None,
        metavar="FILE",
        help="load the RunSpec from a JSON file (e.g. a campaign "
        "violation artifact) instead of building it from flags",
    )
    run_p.add_argument(
        "--timeline",
        action="store_true",
        help="print the round-by-round event timeline",
    )
    run_p.add_argument(
        "--events",
        default=None,
        metavar="FILE",
        help="stream the run's full event plane to FILE as "
        "schema-versioned JSONL (see docs/observability.md)",
    )
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="resiliency sweep over f")
    common(sweep_p)
    sweep_p.add_argument("--max-f", type=int, default=4)
    sweep_p.add_argument("--seeds", type=int, default=10)
    sweep_p.set_defaults(func=cmd_sweep, force=True)

    matrix_p = sub.add_parser(
        "matrix", help="every adversary against one protocol"
    )
    common(matrix_p)
    matrix_p.add_argument("--seeds", type=int, default=3)
    matrix_p.set_defaults(func=cmd_matrix)

    campaign_p = sub.add_parser(
        "campaign",
        help="Monte Carlo churn campaign: many seeded runs, one "
        "violation-rate report (see docs/scenarios.md)",
    )
    campaign_p.add_argument(
        "protocol", nargs="?", default="total-order", choices=PROTOCOLS
    )
    campaign_p.add_argument("--n", type=int, default=9, help="total nodes")
    campaign_p.add_argument("--f", type=int, default=2)
    campaign_p.add_argument(
        "--adversary", default="silent", choices=STRATEGY_BUILDERS
    )
    campaign_p.add_argument("--rushing", action="store_true")
    campaign_p.add_argument("--max-rounds", type=int, default=48)
    campaign_p.add_argument(
        "--churn",
        default="rate",
        choices=(*CHURN_KINDS, "none"),
        help="churn generator for every run (default: rate)",
    )
    campaign_p.add_argument(
        "--churn-param",
        action="append",
        metavar="KEY=VALUE",
        help="churn generator parameter (JSON value), repeatable",
    )
    campaign_p.add_argument(
        "--protocol-param",
        action="append",
        metavar="KEY=VALUE",
        help="protocol-specific knob (JSON value), repeatable",
    )
    campaign_p.add_argument(
        "--scenario",
        default=None,
        metavar="FILE",
        help="load the base RunSpec from a JSON file instead of flags",
    )
    campaign_p.add_argument("--runs", type=int, default=1000)
    campaign_p.add_argument(
        "--campaign-seed",
        type=int,
        default=0,
        help="master seed; per-run seeds derive from (it, run index)",
    )
    campaign_p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool size (report bytes are worker-count-invariant)",
    )
    campaign_p.add_argument(
        "--out", default=None, metavar="FILE", help="save the JSON report"
    )
    campaign_p.add_argument(
        "--artifacts",
        default=None,
        metavar="DIR",
        help="save each violating RunSpec as a replayable JSON artifact",
    )
    campaign_p.set_defaults(
        func=cmd_campaign, variant="full", force=False
    )

    record_p = sub.add_parser(
        "record", help="record a run to JSONL, or verify one"
    )
    common(record_p)
    record_p.add_argument("--seed", type=int, default=0)
    record_p.add_argument(
        "--out", default="run.jsonl", help="recording output path"
    )
    record_p.add_argument(
        "--verify",
        default=None,
        help="verify a prior recording instead of writing one",
    )
    record_p.set_defaults(func=cmd_record)

    demo_p = sub.add_parser("demo", help="canned demonstrations")
    demo_p.add_argument("what", choices=["impossibility"])
    demo_p.set_defaults(func=cmd_demo)

    lint_p = sub.add_parser(
        "lint",
        help="statically check the model invariants (see repro.lint)",
        add_help=False,
    )
    lint_p.add_argument("rest", nargs=argparse.REMAINDER)
    lint_p.set_defaults(func=cmd_lint)  # main() intercepts before argparse
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["lint"]:
        # Hand the whole tail to the lint CLI: argparse.REMAINDER cannot
        # forward leading options like --list-rules.
        from repro.lint.cli import main as lint_main

        return lint_main(argv[1:])
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
