"""Metrics persistence: JSON round-trips, deterministic CSV, table output."""

import numpy as np
import pytest

from amodcc.errors import InvalidInputError
from amodcc.report import (CSV_COLUMNS, TIMING_COLUMNS, format_table,
                           load_metrics_json, metrics_csv_row,
                           save_metrics_json, write_metrics_csv,
                           write_timing_csv)
from amodcc.sim import SimMetrics


def sample(controller="ccmpc", epsilon=0.35, seed=7):
    return SimMetrics(
        controller=controller, epsilon=epsilon, fleet=2, requests=3, served=2,
        assigned_end=1, waiting_end=0,
        waits=np.array([12.5, 30.0]),
        vehicle_m=np.array([[1000.0, 200.0, 30.0], [500.0, 0.0, 12.5]]),
        solver_wall=[0.0125, 0.25], solver_nodes=[3, 4], solver_iterations=[40, 2],
        clamped=1, seed=seed)


def test_json_round_trip(tmp_path):
    path = str(tmp_path / "m.json")
    rows = [sample(), sample(controller="gbm", epsilon=None, seed=None)]
    save_metrics_json(path, rows)
    back = load_metrics_json(path)
    assert len(back) == 2
    for a, b in zip(rows, back):
        assert b.controller == a.controller
        assert b.epsilon == a.epsilon and b.seed == a.seed
        assert np.array_equal(b.waits, a.waits)
        assert np.array_equal(b.vehicle_m, a.vehicle_m)
        assert b.solver_wall == a.solver_wall
        assert b.solver_nodes == a.solver_nodes
        assert b.solver_iterations == a.solver_iterations
        assert b.clamped == a.clamped
        assert b.total_m == a.total_m


def test_json_rejects_damage(tmp_path):
    path = str(tmp_path / "m.json")
    path2 = str(tmp_path / "m2.json")
    (tmp_path / "m.json").write_text("{not json")
    with pytest.raises(InvalidInputError, match="not valid JSON"):
        load_metrics_json(path)
    (tmp_path / "m.json").write_text('{"a": 1}')
    with pytest.raises(InvalidInputError, match="list of metrics"):
        load_metrics_json(path)
    save_metrics_json(path2, [sample()])
    text = (tmp_path / "m2.json").read_text().replace('"served"', '"servd"')
    (tmp_path / "m2.json").write_text(text)
    with pytest.raises(InvalidInputError, match="malformed metrics record"):
        load_metrics_json(path2)


def test_csv_is_byte_deterministic(tmp_path):
    rows = [sample(), sample(controller="oracle", epsilon=None)]
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    write_metrics_csv(a, rows)
    write_metrics_csv(b, rows)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    lines = (tmp_path / "a.csv").read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3
    # Wall-clock statistics must never leak into the reproducible file.
    assert not any("wall" in c for c in lines[0].split(","))


def test_csv_cells_restore_exactly():
    m = sample()
    cells = metrics_csv_row(m)
    assert len(cells) == len(CSV_COLUMNS)
    by_name = dict(zip(CSV_COLUMNS, cells))
    assert by_name["controller"] == "ccmpc"
    assert float(by_name["served_fraction"]) == m.served_fraction
    assert float(by_name["mean_wait_s"]) == m.mean_wait_s
    assert float(by_name["total_km"]) == m.total_m / 1000.0
    assert "np." not in ",".join(cells)
    none_row = metrics_csv_row(sample(epsilon=None, seed=None))
    assert none_row[1] == "" and none_row[2] == ""


def test_timing_csv_summarizes_walls(tmp_path):
    path = str(tmp_path / "t.csv")
    write_timing_csv(path, [sample()])
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert lines[0] == ",".join(TIMING_COLUMNS)
    row = dict(zip(TIMING_COLUMNS, lines[1].split(",")))
    assert row["solves"] == "2"
    assert row["nodes_total"] == "7"
    assert row["iterations_total"] == "42"
    assert float(row["wall_max_s"]) == 0.25
    assert float(row["wall_total_s"]) == pytest.approx(0.2625)


def test_table_renders_every_run():
    text = format_table([sample(), sample(controller="gbm", epsilon=None)])
    lines = text.splitlines()
    assert len(lines) == 3
    assert "controller" in lines[0]
    assert "ccmpc" in lines[1] and "0.35" in lines[1]
    assert "gbm" in lines[2]
    assert format_table([]).startswith("controller")
