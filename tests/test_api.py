"""Names that code outside ``src/`` looks up still exist.

``perfbench/tracing.py`` wraps functions by module and name and reports a
missing one only as "not run", so a rename in ``src/`` would otherwise
pass unnoticed.  The tracer's table is read from its source, not
imported.  The simulator must also keep calling the wrapped dispatch
function by its module global, or the tracer would count no dispatches.
"""

import ast
import importlib
from pathlib import Path

import numpy as np

import amodcc
from amodcc import sim
from amodcc.demand import DemandFlow, synth_demand
from amodcc.network import StationNetwork

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_public_name_resolves():
    assert [name for name in amodcc.__all__ if not hasattr(amodcc, name)] == []


def wrapped_table() -> dict[str, tuple[str, str]]:
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} has no WRAPPED table")


def lookup(path: str):
    """The object at a dotted path: a module, then attributes inside it."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
        return obj
    return None


def test_benchmark_tracer_targets_exist():
    table = wrapped_table()
    assert table
    missing = [f"{owner}.{attr}" for owner, attr in table.values()
               if getattr(lookup(owner), attr, None) is None]
    assert missing == []


def test_dispatch_goes_through_the_sim_module_global(monkeypatch):
    # The tracer counts dispatches by wrapping ``amodcc.sim.assign_pickups``;
    # a dispatch path that bypasses the module global would read 0 there.
    pairs = []
    assign = sim.assign_pickups

    def counted(vehicle_xy, request_xy):
        out = assign(vehicle_xy, request_xy)
        pairs.extend(out)
        return out

    monkeypatch.setattr(sim, "assign_pickups", counted)
    net = StationNetwork.from_centroids(np.array([[0.0, 0.0], [3000.0, 0.0]]),
                                        speed_mps=10.0, step_seconds=300.0)
    flows = [DemandFlow(origin=(0.0, 0.0), dest=(3000.0, 0.0), spread=400.0,
                        profile=[(0.0, 24.0, 30.0)]),
             DemandFlow(origin=(3000.0, 0.0), dest=(0.0, 0.0), spread=400.0,
                        profile=[(0.0, 24.0, 20.0)])]
    sc = sim.Scenario(network=net, trips=synth_demand(flows, 0.0, 0.25, seed=11),
                      sim_start=0.0, sim_end=6 * 3600.0, fleet_size=4)
    m = sim.run_simulation(sc, sim.RunConfig(controller="gbm"))
    assert m.served > 0
    assert len(pairs) == m.served + m.assigned_end
