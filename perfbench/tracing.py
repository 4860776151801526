"""The traced run: per-layer metrics from wrappers around public functions.

Each name is replaced where its caller looks it up, because ``sim`` and
``mpc`` import names directly.  A wrapper records a span (its wall time
and nesting depth) and, after the span closes, runs the independent
check for that call; check time is kept out of every span and out of the
traced day.  A name that no longer exists is reported as "not run"
together with every metric and check that needed it.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import defaultdict

import numpy as np

import checks

# span label -> (module attribute path, attribute name)
WRAPPED = {
    "sim.train_bank": ("amodcc.sim", "train_bank"),
    "sim.forecast_demand": ("amodcc.sim", "forecast_demand"),
    "sim.quantile_demand": ("amodcc.sim", "quantile_demand"),
    "sim.assign_pickups": ("amodcc.sim", "assign_pickups"),
    "forecast.train": ("amodcc.forecast", "train"),
    "forecast.predict_batch": ("amodcc.forecast", "predict_batch"),
    "gp.gram_matrix": ("amodcc.gp", "gram_matrix"),
    "mpc.build_problem": ("amodcc.mpc", "build_problem"),
    "mpc.solve_ilp": ("amodcc.mpc", "solve_ilp"),
    "mpc.RebalancePlan.verify_against": ("amodcc.mpc.RebalancePlan", "verify_against"),
}

# per-layer metric -> the spans it is computed from
NEEDS = {
    "forecast.train_s": ["sim.train_bank"],
    "forecast.flows_fitted": ["sim.train_bank"],
    "gp.train_calls": ["forecast.train"],
    "gp.gram_calls": ["gp.gram_matrix"],
    "gp.gram_p50_ms": ["gp.gram_matrix"],
    "forecast.query_calls": ["sim.forecast_demand"],
    "forecast.query_p50_ms": ["sim.forecast_demand"],
    "gp.predict_calls": ["forecast.predict_batch"],
    "mpc.quantile_p50_ms": ["sim.quantile_demand"],
    "mpc.build_p50_ms": ["mpc.build_problem"],
    "mpc.build_s": ["mpc.build_problem"],
    "mpc.nnz": ["mpc.build_problem"],
    "mpc.rows": ["mpc.build_problem"],
    "mpc.cols": ["mpc.build_problem"],
    "mpc.verify_p50_ms": ["mpc.RebalancePlan.verify_against"],
    "ilp.solves": ["mpc.solve_ilp"],
    "ilp.solve_p50_ms": ["mpc.solve_ilp"],
    "ilp.solve_max_s": ["mpc.solve_ilp"],
    "ilp.solve_s": ["mpc.solve_ilp"],
    "ilp.nodes": ["mpc.solve_ilp"],
    "ilp.node_ms": ["mpc.solve_ilp"],
    "ilp.optimal_share": ["mpc.solve_ilp"],
    "ilp.limit_s": ["mpc.solve_ilp"],
    "dispatch.calls": ["sim.assign_pickups"],
    "dispatch.cells": ["sim.assign_pickups"],
    "dispatch.assign_s": ["sim.assign_pickups"],
    "dispatch.assign_p50_us": ["sim.assign_pickups"],
    "sim.ticks": [],
    "sim.tick_p50_ms": [],
    "sim.tick_p99_ms": [],
    "sim.control_p50_ms": [],
    "sim.control_tail_ms": [],
    "sim.self_s": list(WRAPPED),
    "sim.trace_overhead_s": [],
}

UNITS = {"_s": "s", "_ms": "ms", "_us": "us", "_share": "ratio"}


def _unit(metric: str) -> str:
    for suffix, unit in UNITS.items():
        if metric.endswith(suffix):
            return unit
    return "count"


def _resolve(path: str):
    import importlib
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
            if obj is None:
                return None
        return obj
    return None


def _pct(values, q: float) -> float:
    """The q-quantile (0..1) by linear interpolation; 0 without samples."""
    return float(np.quantile(values, q)) if len(values) else 0.0


class Tracer:
    def __init__(self):
        self.spans: dict[str, list[float]] = defaultdict(list)
        self.depth = 0
        self.outer_s = 0.0       # time inside outermost spans
        self.check_s = 0.0       # time spent in checks, outside every span
        self.errors: list[str] = []
        self.missing: set[str] = set()
        self.flows_fitted = 0
        self.problem_shape: tuple[int, int, int] | None = None
        self.solves: list[tuple[float, str, int]] = []   # (wall, status, nodes)
        self.cells = 0
        self._restore = []

    def install(self) -> None:
        after = {
            "sim.train_bank": self._after_train_bank,
            "sim.assign_pickups": self._after_assign,
            "mpc.build_problem": self._after_build,
            "mpc.solve_ilp": self._after_solve,
        }
        for label, (owner_path, attr) in WRAPPED.items():
            owner = _resolve(owner_path)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.add(f"{owner_path}.{attr}")
                continue
            setattr(owner, attr, self._wrap(label, fn, after.get(label)))
            self._restore.append((owner, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def _wrap(self, label, fn, after):
        def wrapper(*args, **kwargs):
            self.depth += 1
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                wall = time.perf_counter() - t0
                self.depth -= 1
            self.spans[label].append(wall)
            if self.depth == 0:
                self.outer_s += wall
            if after is not None:
                c0 = time.perf_counter()
                try:
                    after(args, out)
                except checks.CheckFailed as exc:
                    self.errors.append(f"{label}: {exc}")
                self.check_s += time.perf_counter() - c0
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    # --- per-call bookkeeping and checks ---------------------------------

    def _after_train_bank(self, args, bank) -> None:
        self.flows_fitted += sum(1 for row in bank.models for fm in row
                                 if fm.gp is not None)

    def _after_assign(self, args, pairs) -> None:
        vehicles, requests = args[0], args[1]
        self.cells += len(vehicles) * len(requests)
        if len(vehicles) and len(requests):
            checks.assignment_is_optimal(vehicles, requests, pairs)

    def _after_build(self, args, prob) -> None:
        self.problem_shape = (prob.a.nnz, prob.a.shape[0], prob.a.shape[1])

    def _after_solve(self, args, sol) -> None:
        prob = args[0]
        self.solves.append((self.spans["mpc.solve_ilp"][-1], sol.status, sol.nodes))
        checks.rows_hold(prob.a, prob.senses, prob.b, prob.lb, prob.ub, sol.x)
        value = float(prob.c @ sol.x)
        checks.objective_matches(sol.objective, value)
        ref = checks.milp_objective(prob.c, prob.a, prob.senses, prob.b, prob.lb, prob.ub,
                                    incumbent=value)
        if sol.status == "optimal":
            checks.objective_matches(value, ref)
        elif value < ref - 1e-6 * max(1.0, abs(ref)):
            raise checks.CheckFailed("a stopped solve beats the MILP optimum")

    # --- metrics -----------------------------------------------------------

    def metrics(self, ticks: list[float], control: list[float], n_ticks: int,
                day_wall: float, day_outer: float, overhead: float) -> dict:
        """Set-up figures per run, other counts and sums per traced round,
        and the last two per simulated day, like ``day_s``."""
        s = self.spans
        ms = 1e3
        solve_walls = [w for w, _, _ in self.solves]
        nodes = sum(n for _, _, n in self.solves)
        nnz, rows, cols = self.problem_shape or (0, 0, 0)
        tail_q = _tail_quantile(len(control))
        return {
            "forecast.train_s": sum(s["sim.train_bank"]),
            "forecast.flows_fitted": self.flows_fitted,
            "gp.train_calls": len(s["forecast.train"]),
            "gp.gram_calls": len(s["gp.gram_matrix"]),
            "gp.gram_p50_ms": _pct(s["gp.gram_matrix"], 0.5) * ms,
            "forecast.query_calls": len(s["sim.forecast_demand"]),
            "forecast.query_p50_ms": _pct(s["sim.forecast_demand"], 0.5) * ms,
            "gp.predict_calls": len(s["forecast.predict_batch"]),
            "mpc.quantile_p50_ms": _pct(s["sim.quantile_demand"], 0.5) * ms,
            "mpc.build_p50_ms": _pct(s["mpc.build_problem"], 0.5) * ms,
            "mpc.build_s": sum(s["mpc.build_problem"]),
            "mpc.nnz": nnz,
            "mpc.rows": rows,
            "mpc.cols": cols,
            "mpc.verify_p50_ms": _pct(s["mpc.RebalancePlan.verify_against"], 0.5) * ms,
            "ilp.solves": len(solve_walls),
            "ilp.solve_p50_ms": _pct(solve_walls, 0.5) * ms,
            "ilp.solve_max_s": max(solve_walls, default=0.0),
            "ilp.solve_s": sum(solve_walls),
            "ilp.nodes": nodes,
            "ilp.node_ms": sum(solve_walls) * ms / nodes if nodes else 0.0,
            "ilp.optimal_share": (sum(1 for _, st, _ in self.solves if st == "optimal")
                                  / len(self.solves) if self.solves else 0.0),
            "ilp.limit_s": sum(w for w, st, _ in self.solves if st != "optimal"),
            "dispatch.calls": len(s["sim.assign_pickups"]),
            "dispatch.cells": self.cells,
            "dispatch.assign_s": sum(s["sim.assign_pickups"]),
            "dispatch.assign_p50_us": _pct(s["sim.assign_pickups"], 0.5) * 1e6,
            "sim.ticks": n_ticks,
            "sim.tick_p50_ms": _pct(ticks, 0.5) * ms,
            "sim.tick_p99_ms": _pct(ticks, 0.99) * ms,
            "sim.control_p50_ms": _pct(control, 0.5) * ms,
            "sim.control_tail_ms": _pct(control, tail_q) * ms if tail_q else 0.0,
            "sim.self_s": day_wall - day_outer,
            "sim.trace_overhead_s": overhead,
        }


def _tail_quantile(n: int) -> float:
    """Highest whole percentile with at least ten samples beyond it."""
    if n < 40:
        return 0.0
    return math.floor(100.0 * (1.0 - 10.0 / n)) / 100.0


def run_traced(bench) -> dict:
    """Set up traced, run one round untraced, then one round traced.

    Both rounds are whole, so the share of failed operations matches
    the timed run.
    """
    tracer = Tracer()
    tracer.install()
    try:
        placed, bank = bench.set_up()
    finally:
        tracer.uninstall()
    untraced = statistics.median(c for _, c in bench.round(placed, bank))

    periods: list[list[tuple[int, float]]] = []
    fleet = bench.scenario.fleet_size

    def on_tick(snap) -> None:
        if snap.tick == 0:
            periods.append([])
        periods[-1].append((snap.tick, time.perf_counter()))
        try:
            checks.legs_sum_to_fleet(snap.leg_counts, fleet)
        except checks.CheckFailed as exc:
            tracer.errors.append(f"tick {snap.tick}: {exc}")

    days = bench.w.live_days * bench.w.periods_per_round
    tracer.install()
    try:
        outer0, check0 = tracer.outer_s, tracer.check_s
        walls, corrected = zip(*(bench.day(placed, bank, on_tick=on_tick)
                                 for _ in range(bench.w.periods_per_round)))
        wall = statistics.mean(walls)
        speed = wall / statistics.mean(corrected)
        day_checks = (tracer.check_s - check0) / days
        day_outer = (tracer.outer_s - outer0) / days
        if bench.w.fault_probe:
            bench.probe()
    finally:
        tracer.uninstall()
    day_wall = wall - day_checks      # checks ran inside the periods
    # The overhead compares drift-corrected figures, like day_s itself.
    overhead = day_wall / speed - untraced

    # Tick k's duration runs from the observer call of tick k-1 to that of
    # tick k; tick 0 also holds the simulator's own set-up and is left out.
    # The last call of a period is its wrap-up, not a tick.
    cfg, net = bench.cfg, bench.scenario.network
    every = 0 if cfg.controller == "gbm" else int(round(net.step_seconds / cfg.dispatch_seconds))
    ticks, control = [], []
    for stamps in periods:
        for (_, prev), (k, now) in zip(stamps[:-2], stamps[1:-1]):
            (control if every and k % every == 0 else ticks).append(now - prev)

    bench.errors.extend(tracer.errors)
    values = tracer.metrics(ticks, control, sum(len(p) - 1 for p in periods),
                            day_wall, day_outer, overhead)
    tail_q = _tail_quantile(len(control))
    bench.notes.append(
        f"sim.control_tail_ms is the p{round(100 * tail_q)} of {len(control)} control ticks"
        if tail_q else f"sim.control_tail_ms: {len(control)} control ticks, too few for a tail")
    bench.notes.append(f"traced day {day_wall / speed:.4f} s, untraced day {untraced:.4f} s, "
                       f"both corrected; {day_checks:.3f} s of checks per day left out")
    not_run = sorted(m for m, needs in NEEDS.items()
                     if any(".".join(WRAPPED[n]) in tracer.missing for n in needs))
    for name in sorted(tracer.missing):
        bench.notes.append(f"not run: {name} is gone, so its wrapper and checks did not run")
    for metric in not_run:
        bench.notes.append(f"not run: {metric}")
    return {k: (float(v), _unit(k)) for k, v in values.items() if k not in not_run}
