"""Public-API hygiene: everything advertised in ``__all__`` exists, every
public item carries a docstring, and subpackage imports are cycle-free."""

import dataclasses
import importlib
import inspect

import pytest

SUBPACKAGES = (
    "repro",
    "repro.analysis",
    "repro.broadcast",
    "repro.congestion",
    "repro.core",
    "repro.distsim",
    "repro.experiments",
    "repro.fuzz",
    "repro.maze",
    "repro.obs",
    "repro.routing",
    "repro.selection",
    "repro.service",
    "repro.sim",
    "repro.telemetry",
    "repro.topology",
    "repro.transport",
    "repro.validation",
    "repro.wire",
    "repro.workloads",
)


@pytest.mark.parametrize("name", SUBPACKAGES)
class TestPublicSurface:
    def test_imports_cleanly(self, name):
        module = importlib.import_module(name)
        assert module.__doc__, f"{name} lacks a module docstring"

    def test_all_entries_exist(self, name):
        module = importlib.import_module(name)
        for symbol in getattr(module, "__all__", []):
            assert hasattr(module, symbol), f"{name}.__all__ lists missing {symbol}"

    def test_public_items_documented(self, name):
        module = importlib.import_module(name)
        for symbol in getattr(module, "__all__", []):
            obj = getattr(module, symbol)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__, f"{name}.{symbol} lacks a docstring"


class TestVersionAndErrors:
    def test_version(self):
        import repro

        assert repro.__version__

    def test_error_hierarchy(self):
        import repro

        for name in (
            "TopologyError",
            "RoutingError",
            "CongestionControlError",
            "BroadcastError",
            "WireFormatError",
            "SimulationError",
            "EmulationError",
            "SelectionError",
        ):
            error_cls = getattr(repro, name)
            assert issubclass(error_cls, repro.ReproError)

    def test_public_class_methods_documented(self):
        # Spot-check the flagship classes: all public methods documented.
        from repro.congestion import RateController
        from repro.core import Rack
        from repro.sim import SimMetrics

        for cls in (Rack, RateController, SimMetrics):
            for name, member in inspect.getmembers(cls):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(member):
                    assert member.__doc__, f"{cls.__name__}.{name} lacks a docstring"


class TestControlLoopConfig:
    """``ControllerConfig`` is the one description of §3.3.2's control loop:
    the simulator, the fluid model, Maze and the rack facade all take it, and
    the per-model config classes it replaced stay gone."""

    def test_three_values(self):
        from repro.congestion import ControllerConfig

        assert [f.name for f in dataclasses.fields(ControllerConfig)] == [
            "headroom",
            "recompute_interval_ns",
            "initial_rate_policy",
        ]

    @pytest.mark.parametrize(
        "module, name",
        [
            ("repro.core", "R2C2Config"),
            ("repro.maze", "EmulationConfig"),
            ("repro.sim.fluid", "FluidConfig"),
        ],
    )
    def test_folded_classes_are_gone(self, module, name):
        assert not hasattr(importlib.import_module(module), name)
