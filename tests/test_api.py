"""Names that code outside ``src/`` looks up still exist.

``perfbench/tracing.py`` wraps functions by module and name and reports a
missing one only as "not run", so a rename in ``src/`` would otherwise
pass unnoticed.  The tracer's table is read from its source, not
imported.  The simulator must also keep calling the wrapped dispatch
function by its module global, or the tracer would count no dispatches.
The tracer's hooks read fields of what the wrapped functions return;
only a traced benchmark run executes them, so one test runs them here on
a short period.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

import amodcc
from amodcc import sim
from amodcc.demand import DemandFlow, synth_demand
from amodcc.gp import TrainConfig
from amodcc.network import StationNetwork

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


@pytest.mark.parametrize("controller", sim.CONTROLLERS)
def test_dispatch_goes_through_the_sim_module_global(controller, monkeypatch):
    # The tracer counts dispatches by wrapping ``amodcc.sim.assign_pickups``;
    # a dispatch path that bypasses the module global would read 0 there.
    # Every pickup that any controller starts goes through it.
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
    m = sim.run_simulation(sc, sim.RunConfig(controller=controller))
    assert m.served > 0
    assert len(pairs) == m.served + m.assigned_end


def test_tracer_hooks_read_what_the_program_returns(monkeypatch):
    # The hooks read bank.models[..].gp, build_problem(...).a, the c, a,
    # senses, b, lb and ub of each problem passed to mpc.solve_ilp and the
    # x, objective, status and nodes of its result; the benchmark's
    # observer reads snap.tick and snap.leg_counts.  A field renamed in
    # src/ must fail here, not only in a traced benchmark run.
    from test_golden import HISTORY_DAYS, golden_inputs

    monkeypatch.syspath_prepend(str(PERFBENCH))
    checks = importlib.import_module("checks")
    tracing = importlib.import_module("tracing")

    sc, bank = golden_inputs()
    ticks = []

    def on_tick(snap):
        ticks.append(snap.tick)
        checks.legs_sum_to_fleet(snap.leg_counts, sc.fleet_size)

    rng = np.random.default_rng(4)
    counts = rng.poisson(2.0, (2, 2, 96))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run = sim.run_simulation(
            sc, sim.RunConfig(controller="ccmpc", train_window_days=HISTORY_DAYS),
            bank=bank, on_tick=on_tick)
        sim.train_bank(counts, np.arange(96) * 0.25 - 23.875, 900.0, series_origin=0.0,
                       window=(-86_400.0, 0.0), trained_at=0.0,
                       cfg=TrainConfig(max_iters=2, freeze=("b.period",)), n_jobs=1)
        sim.run_simulation(sc, sim.RunConfig(controller="gbm", train_window_days=HISTORY_DAYS),
                           on_tick=on_tick)
    finally:
        tracer.uninstall()
    assert tracer.errors == []
    assert tracer.missing == set()
    assert [label for label in tracing.WRAPPED
            if label != "gp.gram_matrix" and not tracer.spans[label]] == []
    assert tracer.flows_fitted == 4 and tracer.problem_shape is not None
    # Every decision, certified or solved, goes through mpc.solve_ilp.
    assert len(tracer.solves) == len(run.solver_wall) == 24
    assert ticks.count(0) == 2
    metrics = tracer.metrics([], [], len(ticks), 0.0, 0.0, 0.0)
    assert set(metrics) == set(tracing.NEEDS)
