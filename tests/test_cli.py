"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "consensus"])
        assert args.n == 10
        assert args.f == 3
        assert args.adversary == "silent"

    def test_sweep_defaults_force(self):
        args = build_parser().parse_args(["sweep", "consensus"])
        assert args.force is True

    def test_rejects_unknown_protocol(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "nonsense"])

    def test_rejects_unknown_adversary(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "consensus", "--adversary", "nonsense"]
            )


class TestCommands:
    def test_run_consensus_ok(self, capsys):
        code = main(
            ["run", "consensus", "--n", "7", "--f", "2", "--seed", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "agreement: OK" in out

    def test_run_with_wrapping_adversary(self, capsys):
        code = main(
            [
                "run",
                "consensus",
                "--n",
                "7",
                "--f",
                "2",
                "--adversary",
                "splitter",
                "--rushing",
            ]
        )
        assert code == 0

    @pytest.mark.parametrize(
        "protocol", ["rotor", "approx", "renaming", "binary-consensus"]
    )
    def test_run_other_protocols(self, protocol, capsys):
        code = main(
            ["run", protocol, "--n", "7", "--f", "2", "--seed", "0"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "rounds" in out

    def test_sweep_prints_table(self, capsys):
        code = main(
            [
                "sweep",
                "consensus",
                "--n",
                "7",
                "--max-f",
                "2",
                "--seeds",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "| f " in out
        assert "n>3f" in out

    def test_run_events_jsonl(self, tmp_path, capsys):
        import json

        path = tmp_path / "events.jsonl"
        code = main(
            [
                "run",
                "consensus",
                "--n",
                "6",
                "--f",
                "1",
                "--events",
                str(path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert f"-> {path}" in out
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0]["topic"] == "schema"
        topics = {doc["topic"] for doc in lines[1:]}
        assert {"run-start", "round-start", "send", "deliver",
                "protocol"} <= topics

    def test_record_and_verify_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        assert (
            main(
                [
                    "record",
                    "consensus",
                    "--n",
                    "7",
                    "--f",
                    "2",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        assert out.exists()
        assert (
            main(
                [
                    "record",
                    "consensus",
                    "--n",
                    "7",
                    "--f",
                    "2",
                    "--verify",
                    str(out),
                ]
            )
            == 0
        )
        assert "matches" in capsys.readouterr().out

    def test_record_verify_detects_mismatch(self, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        main(["record", "consensus", "--n", "7", "--f", "2", "--out",
              str(out)])
        code = main(
            [
                "record",
                "consensus",
                "--n",
                "7",
                "--f",
                "2",
                "--seed",
                "9",
                "--verify",
                str(out),
            ]
        )
        assert code == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_matrix_command(self, capsys):
        code = main(
            [
                "matrix",
                "consensus",
                "--n",
                "7",
                "--f",
                "2",
                "--seeds",
                "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "adversary matrix" in out
        assert "adaptive" in out

    def test_matrix_propagates_a_crash(self, monkeypatch):
        # A bug in a run is not a liveness result: only simulation
        # errors are booked in the table.
        def crash(spec, **kwargs):
            raise KeyError("broken")

        monkeypatch.setattr("repro.cli.run_spec", crash)
        with pytest.raises(KeyError):
            main(["matrix", "consensus", "--n", "7", "--f", "2",
                  "--seeds", "1"])

    def test_matrix_books_round_limit_as_max_rounds(
        self, monkeypatch, capsys
    ):
        from repro.errors import RoundLimitExceeded

        def stall(spec, **kwargs):
            raise RoundLimitExceeded(spec.max_rounds, [1])

        monkeypatch.setattr("repro.cli.run_spec", stall)
        code = main(
            ["matrix", "consensus", "--n", "7", "--f", "2", "--seeds",
             "1", "--max-rounds", "37"]
        )
        out = capsys.readouterr().out
        assert code == 1
        rows = [
            line for line in out.splitlines() if line.startswith("| silent")
        ]
        assert len(rows) == 1
        cells = [cell.strip() for cell in rows[0].split("|")[2:4]]
        assert cells == ["0", "37"]

    def test_run_timeline_flag(self, capsys):
        code = main(
            [
                "run",
                "consensus",
                "--n",
                "4",
                "--f",
                "0",
                "--timeline",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "DEC=" in out

    def test_demo_impossibility(self, capsys):
        code = main(["demo", "impossibility"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Lemma 9.1" in out
        assert "disagreement     : True" in out


class TestScenarioFile:
    def test_run_from_scenario_file(self, tmp_path, capsys):
        from repro.scenario import RunSpec

        path = RunSpec(
            protocol="consensus", n=7, f=2, adversary="splitter",
            rushing=True, seed=4,
        ).save(tmp_path / "spec.json")
        code = main(["run", "--scenario", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "agreement: OK" in out
        assert "seed=4" in out

    def test_seed_flag_overrides_scenario_seed(self, tmp_path, capsys):
        from repro.scenario import RunSpec

        path = RunSpec(protocol="consensus", n=7, f=2, seed=4).save(
            tmp_path / "spec.json"
        )
        code = main(["run", "--scenario", str(path), "--seed", "9"])
        assert code == 0
        assert "seed=9" in capsys.readouterr().out

    def test_run_without_protocol_or_scenario_exits(self):
        with pytest.raises(SystemExit):
            main(["run"])


class TestCampaign:
    def test_small_total_order_campaign(self, tmp_path, capsys):
        import json

        report = tmp_path / "report.json"
        code = main(
            [
                "campaign",
                "--runs", "4",
                "--max-rounds", "48",
                "--churn-param", "start=10",
                "--churn-param", "stop=30",
                "--protocol-param", "event_last=26",
                "--protocol-param", "event_every=4",
                "--out", str(report),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "chain-prefix" in out
        assert "violation rate%" in out
        doc = json.loads(report.read_text())
        assert doc["runs"] == 4
        assert doc["base"]["protocol"] == "total-order"

    def test_campaign_reports_violations_with_artifacts(
        self, tmp_path, capsys
    ):
        # A one-round budget cannot finish: exit 1 plus replay pointers.
        code = main(
            [
                "campaign",
                "consensus",
                "--n", "4",
                "--f", "0",
                "--churn", "none",
                "--max-rounds", "1",
                "--runs", "2",
                "--artifacts", str(tmp_path / "bad"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "VIOLATIONS: 2" in out
        assert "repro run --scenario" in out
        artifacts = sorted((tmp_path / "bad").glob("*.json"))
        assert len(artifacts) == 2
