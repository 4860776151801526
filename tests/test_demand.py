"""Trip ingestion and synthetic workload tests.

Parsing is checked against hand-written files (including the failure
modes, which must name the offending line), and the Poisson sampler is
checked statistically against the closed-form window integrals.
"""

import math
import re

import numpy as np
import pytest
from bad_numbers import NON_FINITE, malformed, replace_token
from hypothesis import given, settings
from hypothesis import strategies as st

from amodcc.demand import (DAY, HOUR, DemandFlow, TripTable, ingest_trips,
                           synth_demand)
from amodcc.errors import InvalidInputError
from amodcc.network import project_lonlat


# --- TripTable ----------------------------------------------------------------


def test_table_rejects_mismatched_lengths():
    with pytest.raises(InvalidInputError, match="matching lengths"):
        TripTable(times=[0.0, 1.0], origins=[[0.0, 0.0]], dests=[[0.0, 0.0]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name, at", [("times", 2), ("origins", (1, 0)), ("dests", (2, 1))])
def test_table_rejects_non_finite_numbers(name, at, bad):
    # A NaN time passes the order check, and a NaN or infinite point would
    # land at station 0.
    arrays = {"times": np.array([0.0, 1.0, 2.0]), "origins": np.zeros((3, 2)),
              "dests": np.ones((3, 2))}
    arrays[name][at] = bad
    with pytest.raises(InvalidInputError, match="must be finite"):
        TripTable(**arrays)


def test_table_rejects_unsorted_times():
    with pytest.raises(InvalidInputError, match="ascending"):
        TripTable(times=[1.0, 0.0],
                  origins=[[0.0, 0.0], [1.0, 1.0]],
                  dests=[[0.0, 0.0], [1.0, 1.0]])


def test_window_is_half_open():
    table = TripTable(times=[0.0, 10.0, 20.0, 30.0],
                      origins=np.zeros((4, 2)), dests=np.zeros((4, 2)))
    cut = table.window(10.0, 30.0)
    assert list(cut.times) == [10.0, 20.0]
    assert len(table.window(0.0, 0.0)) == 0
    assert len(table.window(-5.0, 100.0)) == 4


def test_all_points_stacks_origins_then_dests():
    table = TripTable(times=[0.0, 1.0],
                      origins=[[1.0, 2.0], [3.0, 4.0]],
                      dests=[[5.0, 6.0], [7.0, 8.0]])
    assert table.all_points.tolist() == [
        [1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]]


# --- generic CSV --------------------------------------------------------------


GENERIC_ROWS = [
    (100.0, -122.40, 37.78, -122.41, 37.76),
    (50.0, -122.42, 37.77, -122.39, 37.79),
    (200.0, -122.41, 37.75, -122.40, 37.78),
]


def write_generic(path, rows, header=False, extra_lines=()):
    with open(path, "w") as fh:
        if header:
            fh.write("time,o_lon,o_lat,d_lon,d_lat\n")
        for line in extra_lines:
            fh.write(line + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def test_generic_parses_sorts_and_projects(tmp_path):
    path = tmp_path / "trips.csv"
    write_generic(path, GENERIC_ROWS, header=True,
                  extra_lines=["# comment", ""])
    ref = (-122.41, 37.77)
    table = ingest_trips(str(path), ref=ref)
    assert list(table.times) == [50.0, 100.0, 200.0]
    assert table.projection == ref

    by_time = {r[0]: r for r in GENERIC_ROWS}
    for t, o, d in zip(table.times, table.origins, table.dests):
        row = by_time[t]
        ox, oy = project_lonlat(row[1], row[2], *ref)
        dx, dy = project_lonlat(row[3], row[4], *ref)
        assert o == pytest.approx([float(ox), float(oy)])
        assert d == pytest.approx([float(dx), float(dy)])


def test_generic_default_ref_is_stream_mean(tmp_path):
    path = tmp_path / "trips.csv"
    write_generic(path, GENERIC_ROWS)
    table = ingest_trips(str(path))
    lons = [r[1] for r in GENERIC_ROWS] + [r[3] for r in GENERIC_ROWS]
    lats = [r[2] for r in GENERIC_ROWS] + [r[4] for r in GENERIC_ROWS]
    assert table.projection == pytest.approx(
        (np.mean(lons), np.mean(lats)))


def test_generic_reports_bad_line_numbers(tmp_path):
    path = tmp_path / "trips.csv"
    with open(path, "w") as fh:
        fh.write("10.0,1.0,2.0,3.0,4.0\n")
        fh.write("20.0,1.0,2.0\n")
    with pytest.raises(InvalidInputError, match="line 2.*5 comma"):
        ingest_trips(str(path))

    with open(path, "w") as fh:
        fh.write("10.0,1.0,2.0,3.0,4.0\n")
        fh.write("\n")
        fh.write("20.0,one,2.0,3.0,4.0\n")
    with pytest.raises(InvalidInputError, match="line 3.*non-numeric"):
        ingest_trips(str(path))


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", range(5))
def test_generic_names_the_line_of_a_non_finite_field(tmp_path, field, bad):
    path = tmp_path / "trips.csv"
    row = ["20.0", "1.0", "2.0", "3.0", "4.0"]
    row[field] = bad
    path.write_text("time,o_lon,o_lat,d_lon,d_lat\n10.0,1.0,2.0,3.0,4.0\n"
                    + ",".join(row) + "\n")
    with pytest.raises(InvalidInputError, match=re.escape(
            f"{path}: malformed line 3: {','.join(row)!r} (non-finite field)")):
        ingest_trips(str(path))


def test_a_trailing_comment_is_dropped(tmp_path):
    # As on every other text input; such a trip line used to be refused as
    # non-numeric, and a cab-trace line as a bad field.
    plain, noted = tmp_path / "plain.csv", tmp_path / "noted.csv"
    write_generic(plain, GENERIC_ROWS)
    noted.write_text("".join(",".join(map(str, row)) + "  # a note\n" for row in GENERIC_ROWS))
    a, b = ingest_trips(str(plain)), ingest_trips(str(noted))
    assert np.array_equal(a.times, b.times) and np.array_equal(a.origins, b.origins)
    trace = tmp_path / "cab.txt"
    trace.write_text("37.70 -122.40 0 100.0\n37.71 -122.41 1 200.0 # pickup\n"
                     "37.72 -122.42 0 300.0\n")
    assert list(ingest_trips(str(trace), fmt="cabtrace").times) == [200.0]


def test_generic_rejects_empty_stream(tmp_path):
    path = tmp_path / "trips.csv"
    write_generic(path, [], header=True, extra_lines=["# nothing here"])
    with pytest.raises(InvalidInputError, match="no usable trips"):
        ingest_trips(str(path))


def test_unknown_format_rejected(tmp_path):
    path = tmp_path / "trips.csv"
    write_generic(path, GENERIC_ROWS)
    with pytest.raises(InvalidInputError, match="unknown trip format"):
        ingest_trips(str(path), fmt="parquet")


# --- cab traces ---------------------------------------------------------------


def write_trace(path, rows):
    """rows of (lat, lon, occ, t)."""
    with open(path, "w") as fh:
        for lat, lon, occ, t in rows:
            fh.write(f"{lat} {lon} {occ} {t}\n")


def test_trace_extracts_pickup_dropoff_pairs(tmp_path):
    # Empty, then occupied for three fixes, then empty again: one trip from
    # the first occupied fix to the last one.
    path = tmp_path / "cab.txt"
    write_trace(path, [
        (37.70, -122.40, 0, 100.0),
        (37.71, -122.41, 1, 160.0),
        (37.72, -122.42, 1, 220.0),
        (37.73, -122.43, 1, 280.0),
        (37.74, -122.44, 0, 340.0),
        (37.75, -122.45, 1, 400.0),
        (37.76, -122.46, 0, 460.0),
    ])
    ref = (-122.43, 37.73)
    table = ingest_trips(str(path), fmt="cabtrace", ref=ref)
    assert list(table.times) == [160.0, 400.0]
    ox, oy = project_lonlat(-122.41, 37.71, *ref)
    dx, dy = project_lonlat(-122.43, 37.73, *ref)
    assert table.origins[0] == pytest.approx([float(ox), float(oy)])
    assert table.dests[0] == pytest.approx([float(dx), float(dy)])


def test_trace_drops_runs_cut_by_the_edges(tmp_path):
    # Starts occupied (no observed pickup) and ends occupied (no observed
    # dropoff); only the middle run is a complete trip.
    path = tmp_path / "cab.txt"
    write_trace(path, [
        (37.70, -122.40, 1, 100.0),
        (37.71, -122.41, 0, 200.0),
        (37.72, -122.42, 1, 300.0),
        (37.73, -122.43, 0, 400.0),
        (37.74, -122.44, 1, 500.0),
    ])
    table = ingest_trips(str(path), fmt="cabtrace")
    assert list(table.times) == [300.0]


def test_trace_sorts_fixes_before_pairing(tmp_path):
    path = tmp_path / "cab.txt"
    write_trace(path, [
        (37.73, -122.43, 0, 400.0),
        (37.70, -122.40, 0, 100.0),
        (37.72, -122.42, 1, 300.0),
    ])
    table = ingest_trips(str(path), fmt="cabtrace")
    assert list(table.times) == [300.0]


def test_trace_reports_bad_lines(tmp_path):
    path = tmp_path / "cab.txt"
    with open(path, "w") as fh:
        fh.write("37.70 -122.40 0 100.0\n")
        fh.write("37.71 -122.41 2 200.0\n")
    with pytest.raises(InvalidInputError, match="line 2.*occupancy"):
        ingest_trips(str(path), fmt="cabtrace")

    with open(path, "w") as fh:
        fh.write("37.70 -122.40 0\n")
    with pytest.raises(InvalidInputError, match="line 1.*4 whitespace"):
        ingest_trips(str(path), fmt="cabtrace")


@pytest.mark.parametrize("row", [("nan", -122.41, 1, 200.0), (37.71, "-inf", 1, 200.0),
                                 (37.71, -122.41, 0, "nan"), (37.71, -122.41, 1, "inf")])
def test_trace_names_the_line_of_a_non_finite_field(tmp_path, row):
    # Even a fix outside every trip: a NaN time would misplace the sort.
    path = tmp_path / "cab.txt"
    write_trace(path, [(37.70, -122.40, 0, 100.0), row, (37.72, -122.42, 0, 300.0)])
    line = " ".join(map(str, row))
    with pytest.raises(InvalidInputError, match=re.escape(
            f"{path}: malformed line 2: {line!r} (non-finite field)")):
        ingest_trips(str(path), fmt="cabtrace")


FINITE = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(*[FINITE] * 5), min_size=1, max_size=6), data=st.data())
def test_generic_refuses_any_non_finite_field_on_its_line(tmp_path_factory, rows, data):
    # A valid file loads; with one field made non-finite it is refused in
    # the one input-error format, which names the file and the line.
    path = tmp_path_factory.mktemp("generic") / "trips.csv"
    lines = ["time,o_lon,o_lat,d_lon,d_lat"] + [",".join(map(repr, r)) for r in rows]
    path.write_text("\n".join(lines) + "\n")
    assert len(ingest_trips(str(path))) == len(rows)
    at = data.draw(st.integers(1, len(rows)))
    lines[at] = replace_token(lines[at], data.draw(st.integers(0, 4)), data.draw(NON_FINITE),
                              sep=",")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InvalidInputError) as exc:
        ingest_trips(str(path))
    assert str(exc.value) == malformed(path, at + 1, lines[at], "non-finite field")


@settings(derandomize=True, max_examples=60, deadline=None)
@given(fixes=st.lists(st.tuples(FINITE, FINITE, st.sampled_from([0, 1])),
                      min_size=3, max_size=8),
       data=st.data())
def test_trace_refuses_any_non_finite_field_on_its_line(tmp_path_factory, fixes, data):
    # Times ascend and the trace opens empty, occupied, empty, so the
    # valid file holds a trip; then latitude, longitude or time goes bad.
    path = tmp_path_factory.mktemp("trace") / "cab.txt"
    lines = [f"{lat!r} {lon!r} {occ if k > 2 else k % 2} {100.0 * k!r}"
             for k, (lat, lon, occ) in enumerate(fixes)]
    path.write_text("\n".join(lines) + "\n")
    assert len(ingest_trips(str(path), fmt="cabtrace")) >= 1
    at = data.draw(st.integers(0, len(lines) - 1))
    lines[at] = replace_token(lines[at], data.draw(st.sampled_from([0, 1, 3])),
                              data.draw(NON_FINITE))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InvalidInputError) as exc:
        ingest_trips(str(path), fmt="cabtrace")
    assert str(exc.value) == malformed(path, at + 1, lines[at], "non-finite field")


def test_trace_directory_merges_files_and_skips_hidden(tmp_path):
    write_trace(tmp_path / "cab_a.txt", [
        (37.70, -122.40, 0, 100.0),
        (37.71, -122.41, 1, 200.0),
        (37.72, -122.42, 0, 300.0),
    ])
    write_trace(tmp_path / "cab_b.txt", [
        (37.70, -122.40, 0, 150.0),
        (37.71, -122.41, 1, 250.0),
        (37.72, -122.42, 0, 350.0),
    ])
    # A hidden file with garbage must be ignored.
    (tmp_path / ".DS_Store").write_text("not a trace\n")
    table = ingest_trips(str(tmp_path), fmt="cabtrace")
    assert list(table.times) == [200.0, 250.0]


# --- DemandFlow ---------------------------------------------------------------


def test_flow_validation():
    with pytest.raises(InvalidInputError, match="spread"):
        DemandFlow(origin=(0, 0), dest=(1, 1), spread=-1.0)
    with pytest.raises(InvalidInputError, match="window"):
        DemandFlow(origin=(0, 0), dest=(1, 1), spread=0.0,
                   profile=[(8.0, 7.0, 10.0)])
    with pytest.raises(InvalidInputError, match="window"):
        DemandFlow(origin=(0, 0), dest=(1, 1), spread=0.0,
                   profile=[(20.0, 25.0, 10.0)])
    with pytest.raises(InvalidInputError, match="rates"):
        DemandFlow(origin=(0, 0), dest=(1, 1), spread=0.0,
                   profile=[(8.0, 9.0, -10.0)])


@pytest.mark.parametrize("numbers, message", [
    ({"spread": math.nan}, "spread must be finite and >= 0, got nan"),
    ({"day_jitter": math.nan}, "day_jitter must be finite and >= 0, got nan"),
    ({"peak_jitter": math.inf}, "peak_jitter must be finite and >= 0, got inf"),
    ({"profile": [(8.0, 9.0, math.nan)]}, "profile rates must be finite and >= 0, got nan")])
def test_flow_rejects_non_finite_numbers(numbers, message):
    # A NaN spread or rate used to construct (the rate then failed inside
    # NumPy's Poisson draw), a NaN day jitter meant no jitter, and an
    # infinite peak jitter was accepted.
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        DemandFlow(**{"origin": (0, 0), "dest": (1, 1), "spread": 0.0, **numbers})


def test_rate_at_sums_overlapping_windows():
    flow = DemandFlow(origin=(0, 0), dest=(1, 1), spread=0.0,
                      profile=[(7.0, 10.0, 100.0), (9.0, 12.0, 50.0)])
    assert flow.rate_at(8.0) == 100.0
    assert flow.rate_at(9.5) == 150.0
    assert flow.rate_at(11.0) == 50.0
    assert flow.rate_at(12.0) == 0.0       # windows are [start, end)
    assert flow.rate_at(7.0) == 100.0
    assert flow.rate_at(8.0 + 48.0) == 100.0   # wraps by whole days


def test_expected_trips_matches_riemann_sum():
    flow = DemandFlow(origin=(0, 0), dest=(1, 1), spread=0.0,
                      profile=[(7.0, 10.0, 120.0), (16.0, 19.0, 80.0)])
    day0 = 1_000_000.0
    rng = np.random.default_rng(7)
    for _ in range(20):
        t0 = day0 + rng.uniform(-DAY, 2 * DAY)
        t1 = t0 + rng.uniform(0.0, 1.5 * DAY)
        grid = np.linspace(t0, t1, 200_001)
        mid = (grid[:-1] + grid[1:]) / 2.0
        hours = ((mid - day0) % DAY) / HOUR
        riemann = sum(flow.rate_at(h) for h in hours) * (t1 - t0) / (
            len(mid) * HOUR)
        assert flow.expected_trips(t0, t1, day0) == pytest.approx(
            riemann, abs=0.05)
    assert flow.expected_trips(t0, t0, day0) == 0.0
    assert flow.expected_trips(t0, t0 - 1.0, day0) == 0.0


def test_expected_trips_whole_day_is_window_totals():
    flow = DemandFlow(origin=(0, 0), dest=(1, 1), spread=0.0,
                      profile=[(7.0, 10.0, 120.0), (16.0, 19.0, 80.0)])
    assert flow.expected_trips(0.0, DAY, 0.0) == pytest.approx(600.0)
    assert flow.expected_trips(0.0, 3 * DAY, 0.0) == pytest.approx(1800.0)


# --- synthetic sampler --------------------------------------------------------


COMMUTE = DemandFlow(origin=(0.0, 0.0), dest=(8000.0, 8000.0), spread=50.0,
                     profile=[(7.0, 10.0, 120.0)])
BACKGROUND = DemandFlow(origin=(4000.0, 4000.0), dest=(1000.0, 1000.0),
                        spread=200.0, profile=[(0.0, 24.0, 40.0)])


def test_synth_rejects_degenerate_inputs():
    with pytest.raises(InvalidInputError, match="at least one"):
        synth_demand([], 0.0, 1.0, seed=1)
    with pytest.raises(InvalidInputError, match="days"):
        synth_demand([COMMUTE], 0.0, 0.0, seed=1)
    silent = DemandFlow(origin=(0, 0), dest=(1, 1), spread=0.0,
                        profile=[(7.0, 8.0, 0.0)])
    with pytest.raises(InvalidInputError, match="no trips"):
        synth_demand([silent], 0.0, 1.0, seed=1)


@pytest.mark.parametrize("days", [math.nan, math.inf])
def test_synth_rejects_non_finite_days(days):
    # NaN days used to fail converting the day count to an integer.
    with pytest.raises(InvalidInputError, match=f"days must be finite and positive, got {days}"):
        synth_demand([COMMUTE], 0.0, days, seed=1)


def test_synth_is_deterministic():
    a = synth_demand([COMMUTE, BACKGROUND], 0.0, 2.0, seed=42)
    b = synth_demand([COMMUTE, BACKGROUND], 0.0, 2.0, seed=42)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.origins, b.origins)
    assert np.array_equal(a.dests, b.dests)
    c = synth_demand([COMMUTE, BACKGROUND], 0.0, 2.0, seed=43)
    assert not np.array_equal(a.times, c.times)


def test_synth_adding_a_flow_keeps_existing_trips():
    alone = synth_demand([COMMUTE], 0.0, 1.0, seed=42)
    both = synth_demand([COMMUTE, BACKGROUND], 0.0, 1.0, seed=42)
    assert len(both) > len(alone)
    assert set(alone.times).issubset(set(both.times))


def test_synth_times_stay_inside_windows():
    table = synth_demand([COMMUTE], 0.0, 2.0, seed=5)
    hours = (table.times % DAY) / HOUR
    assert np.all((hours >= 7.0) & (hours < 10.0))
    assert np.any(table.times >= DAY)      # both days populated


def test_synth_truncates_at_fractional_days():
    # days=0.35 ends at 8.4 h, mid-window: the commute window must be cut.
    table = synth_demand([COMMUTE], 0.0, 0.35, seed=5)
    assert table.times.max() < 0.35 * DAY
    hours = table.times / HOUR
    assert np.all((hours >= 7.0) & (hours < 8.4))


def test_synth_counts_match_expected_trips():
    # Pooled over seeds the count is Poisson; 5 sigma bounds the flake rate.
    flow = BACKGROUND
    expected = flow.expected_trips(0.0, DAY, 0.0)
    counts = [len(synth_demand([flow], 0.0, 1.0, seed=s)) for s in range(30)]
    pooled = float(np.sum(counts))
    mean = 30 * expected
    assert abs(pooled - mean) < 5.0 * np.sqrt(mean)


def test_day_jitter_preserves_expected_totals():
    wobbly = DemandFlow(origin=(0.0, 0.0), dest=(1.0, 1.0), spread=1.0,
                        profile=[(0.0, 24.0, 40.0)], day_jitter=0.3)
    expected = wobbly.expected_trips(0.0, DAY, 0.0)
    counts = [len(synth_demand([wobbly], 0.0, 1.0, seed=s)) for s in range(60)]
    mean = 60 * expected
    # Mixed-Poisson variance: lambda + lambda^2 (e^{sigma^2} - 1) per day.
    day_var = expected + expected ** 2 * (np.exp(0.3 ** 2) - 1.0)
    assert abs(float(np.sum(counts)) - mean) < 5.0 * np.sqrt(60 * day_var)
    assert np.std(counts) > np.sqrt(expected)      # day-level overdispersion


def test_peak_jitter_slides_windows_inside_the_day():
    drifty = DemandFlow(origin=(0.0, 0.0), dest=(1.0, 1.0), spread=1.0,
                        profile=[(7.0, 10.0, 120.0)], peak_jitter=0.8)
    table = synth_demand([drifty], 0.0, 40.0, seed=11)
    hours = (table.times % DAY) / HOUR
    assert np.all((hours >= 0.0) & (hours < 24.0))
    assert hours.min() < 6.9 and hours.max() > 10.1   # it actually moved
    # Window length is preserved, so the long-run mean count is unchanged.
    expected = 40 * drifty.expected_trips(0.0, DAY, 0.0)
    assert abs(len(table) - expected) < 5.0 * np.sqrt(expected)
    # Per-day spans stay 3 h wide even when shifted.
    day_idx = (table.times // DAY).astype(int)
    for d in range(40):
        span = hours[day_idx == d]
        assert span.max() - span.min() <= 3.0 + 1e-9


def test_peak_jitter_never_moves_all_day_windows():
    flat = DemandFlow(origin=(0.0, 0.0), dest=(1.0, 1.0), spread=1.0,
                      profile=[(0.0, 24.0, 40.0)], peak_jitter=2.0)
    quiet = DemandFlow(origin=(0.0, 0.0), dest=(1.0, 1.0), spread=1.0,
                       profile=[(0.0, 24.0, 40.0)])
    a = synth_demand([flat], 0.0, 2.0, seed=3)
    b = synth_demand([quiet], 0.0, 2.0, seed=3)
    # The clamp zeroes the shift, so coverage spans the clock either way.
    assert len(a) != 0 and len(b) != 0
    for table in (a, b):
        hours = (table.times % DAY) / HOUR
        assert hours.min() < 1.0 and hours.max() > 23.0


def test_synth_scatters_points_around_endpoints():
    table = synth_demand([COMMUTE], 0.0, 30.0, seed=9)
    n = len(table)
    assert n > 5000
    tol = 5.0 * COMMUTE.spread / np.sqrt(n)
    assert table.origins.mean(axis=0) == pytest.approx(
        COMMUTE.origin, abs=tol)
    assert table.dests.mean(axis=0) == pytest.approx(COMMUTE.dest, abs=tol)
    assert table.origins[:, 0].std() == pytest.approx(
        COMMUTE.spread, rel=0.1)
