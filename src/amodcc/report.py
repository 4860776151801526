"""Metrics persistence and reporting.

Two artifacts come out of a run: a JSON dump that round-trips the full
metrics (including per-request waits and solver statistics), and a flat
CSV of the service metrics.  The CSV is byte-deterministic for a fixed
workload and configuration, so wall-clock solver statistics are kept out
of it; they go to a separate timing CSV instead.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import InvalidInputError
from .sim import SimMetrics

CSV_COLUMNS = [
    "controller", "epsilon", "seed", "fleet", "requests", "served",
    "assigned_end", "waiting_end", "served_fraction", "mean_wait_s",
    "median_wait_s", "customer_km", "rebalance_km", "pickup_km", "total_km",
]

TIMING_COLUMNS = [
    "controller", "epsilon", "seed", "solves", "nodes_total", "iterations_total",
    "wall_total_s", "wall_median_s", "wall_max_s",
]


def metrics_to_dict(m: SimMetrics) -> dict:
    return {
        "controller": m.controller,
        "epsilon": m.epsilon,
        "seed": m.seed,
        "fleet": m.fleet,
        "requests": m.requests,
        "served": m.served,
        "assigned_end": m.assigned_end,
        "waiting_end": m.waiting_end,
        "waits": [float(w) for w in m.waits],
        "vehicle_m": [[float(x) for x in row] for row in m.vehicle_m],
        "solver_wall": [float(w) for w in m.solver_wall],
        "solver_nodes": [int(c) for c in m.solver_nodes],
        "solver_iterations": [int(c) for c in m.solver_iterations],
        "clamped": m.clamped,
    }


def metrics_from_dict(d: dict) -> SimMetrics:
    try:
        return SimMetrics(
            controller=d["controller"],
            epsilon=d["epsilon"],
            seed=d.get("seed"),
            fleet=int(d["fleet"]),
            requests=int(d["requests"]),
            served=int(d["served"]),
            assigned_end=int(d["assigned_end"]),
            waiting_end=int(d["waiting_end"]),
            waits=np.asarray(d["waits"], dtype=float),
            vehicle_m=np.asarray(d["vehicle_m"], dtype=float).reshape(-1, 3),
            solver_wall=list(d.get("solver_wall", [])),
            solver_nodes=list(d.get("solver_nodes", [])),
            solver_iterations=list(d.get("solver_iterations", [])),
            clamped=int(d.get("clamped", 0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed metrics record: {exc}") from exc


def save_metrics_json(path: str, rows: list[SimMetrics]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([metrics_to_dict(m) for m in rows], fh, indent=1)
        fh.write("\n")


def load_metrics_json(path: str) -> list[SimMetrics]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(data, list):
        raise InvalidInputError(f"{path}: expected a list of metrics records")
    return [metrics_from_dict(d) for d in data]


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def metrics_csv_row(m: SimMetrics) -> list[str]:
    return [_cell(v) for v in (
        m.controller, m.epsilon, m.seed, m.fleet, m.requests, m.served,
        m.assigned_end, m.waiting_end, m.served_fraction, m.mean_wait_s,
        m.median_wait_s, m.customer_m / 1000.0, m.rebalance_m / 1000.0,
        m.pickup_m / 1000.0, m.total_m / 1000.0,
    )]


def write_metrics_csv(path: str, rows: list[SimMetrics]) -> None:
    """Service metrics, one row per run; byte-identical across repeats."""
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(",".join(metrics_csv_row(m)) for m in rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_timing_csv(path: str, rows: list[SimMetrics]) -> None:
    """Solver wall-time statistics; informational, not reproducible."""
    lines = [",".join(TIMING_COLUMNS)]
    for m in rows:
        wall = np.asarray(m.solver_wall, dtype=float)
        cells = [_cell(v) for v in (
            m.controller, m.epsilon, m.seed, len(m.solver_wall),
            int(sum(m.solver_nodes)), int(sum(m.solver_iterations)),
            float(wall.sum()) if wall.size else 0.0,
            float(np.median(wall)) if wall.size else 0.0,
            float(wall.max()) if wall.size else 0.0,
        )]
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def format_table(rows: list[SimMetrics]) -> str:
    """Fixed-width text summary for terminals."""
    header = ["controller", "eps", "seed", "served", "req", "srv%",
              "wait_mean", "wait_med", "cust_km", "reb_km", "pick_km"]
    body = []
    for m in rows:
        body.append([
            m.controller,
            "" if m.epsilon is None else f"{m.epsilon:.2f}",
            "" if m.seed is None else str(m.seed),
            str(m.served), str(m.requests),
            f"{100.0 * m.served_fraction:.1f}",
            f"{m.mean_wait_s:.1f}", f"{m.median_wait_s:.1f}",
            f"{m.customer_m / 1000.0:.1f}", f"{m.rebalance_m / 1000.0:.1f}",
            f"{m.pickup_m / 1000.0:.1f}",
        ])
    widths = [max(len(header[c]), *(len(r[c]) for r in body)) if body
              else len(header[c]) for c in range(len(header))]
    def fmt(row):
        return "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
    return "\n".join([fmt(header)] + [fmt(r) for r in body])
