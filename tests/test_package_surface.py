"""Structural tests of the public package surface.

Cheap insurance against the silent breakages a library accumulates:
names exported in ``__all__`` that do not exist, public modules without
docstrings, and the CLI registry drifting from the adversary registry.
"""

import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.sim",
    "repro.adversary",
    "repro.core",
    "repro.baselines",
    "repro.asyncsim",
    "repro.net",
    "repro.analysis",
]


def iter_public_modules():
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        yield package_name, package
        for info in pkgutil.iter_modules(package.__path__ if hasattr(
                package, "__path__") else []):
            if info.name.startswith("_"):
                continue
            yield (
                f"{package_name}.{info.name}",
                importlib.import_module(f"{package_name}.{info.name}"),
            )


ALL_MODULES = dict(iter_public_modules())


class TestSurface:
    @pytest.mark.parametrize("name", sorted(ALL_MODULES))
    def test_module_has_docstring(self, name):
        module = ALL_MODULES[name]
        assert module.__doc__, f"{name} lacks a module docstring"
        assert len(module.__doc__.strip()) > 20

    @pytest.mark.parametrize("name", PACKAGES)
    def test_all_names_resolve(self, name):
        package = importlib.import_module(name)
        exported = getattr(package, "__all__", [])
        for symbol in exported:
            assert hasattr(package, symbol), f"{name}.{symbol} missing"

    @pytest.mark.parametrize("name", PACKAGES)
    def test_all_is_sorted(self, name):
        package = importlib.import_module(name)
        exported = list(getattr(package, "__all__", []))
        assert exported == sorted(exported), f"{name}.__all__ unsorted"

    def test_version_consistency(self):
        import tomllib

        with open("pyproject.toml", "rb") as handle:
            pyproject = tomllib.load(handle)
        assert repro.__version__ == pyproject["project"]["version"]

    def test_cli_covers_registry(self):
        from repro.adversary import STRATEGY_BUILDERS
        from repro.cli import build_parser

        parser = build_parser()
        # find the run subparser's --adversary choices
        text = parser.format_help()
        # cheap but effective: every registered strategy must be usable
        for name in STRATEGY_BUILDERS:
            args = build_parser().parse_args(
                ["run", "consensus", "--adversary", name]
            )
            assert args.adversary == name

    def test_public_protocols_are_protocols(self):
        from repro.core import (
            ApproximateAgreement,
            BinaryKingConsensus,
            ByzantineRenaming,
            EarlyConsensus,
            InteractiveConsistency,
            ParallelConsensus,
            ReliableBroadcast,
            ReliableChannel,
            ReplicatedKVStore,
            RotorCoordinator,
            TerminatingReliableBroadcast,
            TotalOrderNode,
        )
        from repro.sim.node import Protocol

        for cls in (
            ApproximateAgreement,
            BinaryKingConsensus,
            ByzantineRenaming,
            EarlyConsensus,
            InteractiveConsistency,
            ParallelConsensus,
            ReliableBroadcast,
            ReliableChannel,
            ReplicatedKVStore,
            RotorCoordinator,
            TerminatingReliableBroadcast,
            TotalOrderNode,
        ):
            assert issubclass(cls, Protocol), cls


def test_simulator_imports_no_numpy():
    # The simulator is pure stdlib: importing the scenario layer and
    # the round engine must not pull numpy in, even where it is
    # installed.
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.scenario, repro.sim.network; "
            "print('numpy' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip() == "False"
