"""Trip ingestion and synthetic demand generation.

Both real traces and synthetic workloads reduce to the same thing: a
time-sorted table of requests, each an origin and destination point on the
projected plane.  Station assignment happens later, against a network.
"""

from __future__ import annotations

import array
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, read_lines
from .network import project_lonlat

DAY = 86_400.0
HOUR = 3_600.0


@dataclass
class TripTable:
    """Time-sorted trip requests on the projected plane."""

    times: np.ndarray     # (M,) epoch seconds, ascending
    origins: np.ndarray   # (M, 2) meters
    dests: np.ndarray     # (M, 2) meters
    projection: tuple[float, float] | None = None   # (lon0, lat0) if projected

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.origins = np.asarray(self.origins, dtype=float).reshape(-1, 2)
        self.dests = np.asarray(self.dests, dtype=float).reshape(-1, 2)
        m = self.times.shape[0]
        if self.origins.shape[0] != m or self.dests.shape[0] != m:
            raise InvalidInputError("trip arrays must have matching lengths")
        if not (np.isfinite(self.times).all() and np.isfinite(self.origins).all()
                and np.isfinite(self.dests).all()):
            raise InvalidInputError("trip times and points must be finite")
        if m and np.any(np.diff(self.times) < 0):
            raise InvalidInputError("trip times must be sorted ascending")

    def __len__(self) -> int:
        return self.times.shape[0]

    @property
    def all_points(self) -> np.ndarray:
        """Origins and destinations pooled, for station partitioning."""
        return np.vstack([self.origins, self.dests])

    def window(self, t0: float, t1: float) -> "TripTable":
        """Trips with t0 <= time < t1."""
        lo = int(np.searchsorted(self.times, t0, side="left"))
        hi = int(np.searchsorted(self.times, t1, side="left"))
        return TripTable(times=self.times[lo:hi], origins=self.origins[lo:hi],
                         dests=self.dests[lo:hi], projection=self.projection)


def _sorted_table(trips: np.ndarray, ref) -> TripTable:
    """The table of (M, 5) rows of time, origin lon/lat, destination lon/lat."""
    if trips.shape[0] == 0:
        raise InvalidInputError("trip stream contains no usable trips")
    times, olon, olat, dlon, dlat = trips.T
    if ref is None:
        lons = np.concatenate([olon, dlon])
        lats = np.concatenate([olat, dlat])
        ref = (float(lons.mean()), float(lats.mean()))
    lon0, lat0 = ref
    ox, oy = project_lonlat(olon, olat, lon0, lat0)
    dx, dy = project_lonlat(dlon, dlat, lon0, lat0)
    order = np.argsort(times, kind="stable")
    return TripTable(times=times[order],
                     origins=np.column_stack([ox, oy])[order],
                     dests=np.column_stack([dx, dy])[order],
                     projection=(lon0, lat0))


def _fields(parts) -> list[float]:
    """The numbers of one trip line, checked for finiteness once per line."""
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise ValueError(f"non-numeric field, {exc}") from None
    if not all(map(math.isfinite, values)):
        raise ValueError("non-finite field")
    return values


def _read_generic(path: str):
    """The trips of a generic CSV, as :func:`_sorted_table` takes them."""
    flat = array.array("d")

    def row(lineno: int, line: str) -> None:
        parts = line.split(",")
        if lineno == 1 and not _is_float(parts[0]):
            return                     # header row
        if len(parts) != 5:
            raise ValueError(f"expected 5 comma-separated fields, got {len(parts)}")
        flat.extend(_fields(parts))

    read_lines(path, row)
    return np.frombuffer(flat).reshape(-1, 5)


def _is_float(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def _read_trace(path: str):
    """One cab's occupancy trace: `lat lon occupied epoch` per line."""
    rows = []

    def fix(lineno: int, line: str) -> None:
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(f"expected 4 whitespace-separated fields, got {len(parts)}")
        lat, lon, t = _fields((parts[0], parts[1], parts[3]))
        occ = int(parts[2])
        if occ not in (0, 1):
            raise ValueError(f"occupancy must be 0 or 1, got {occ}")
        rows.append((t, lat, lon, occ))

    read_lines(path, fix)
    rows.sort(key=lambda r: r[0])
    return rows


def _trace_trips(rows):
    """Pickup/dropoff pairs from occupancy edges.

    A trip needs an observed 0 -> 1 edge (pickup at the first occupied fix)
    and a 1 -> 0 edge (dropoff at the last occupied fix); runs cut off by
    the start or end of the trace are dropped.
    """
    trips = []
    pickup = None
    last_occupied = None
    saw_empty = False
    for t, lat, lon, occ in rows:
        if occ == 1:
            if pickup is None and saw_empty:
                pickup = (t, lat, lon)
            last_occupied = (t, lat, lon)
        else:
            saw_empty = True
            if pickup is not None:
                trips.append((pickup, last_occupied))
            pickup = None
            last_occupied = None
    return trips


def ingest_trips(path: str, fmt: str = "generic",
                 ref: tuple[float, float] | None = None) -> TripTable:
    """Read trips from disk into a :class:`TripTable`.

    ``fmt="generic"`` reads a CSV of ``epoch_seconds,o_lon,o_lat,d_lon,d_lat``
    rows (an optional header line is skipped).  ``fmt="cabtrace"`` reads
    taxi occupancy traces, one vehicle per file; a directory is ingested
    file by file.  ``ref`` pins the projection reference; by default the
    mean coordinate of the stream is used.  Both formats are read by
    :func:`~amodcc.errors.read_lines`: ``#`` starts a comment, and a line
    that is malformed or holds a non-finite number is invalid input.
    """
    if fmt == "generic":
        return _sorted_table(_read_generic(path), ref=ref)
    if fmt != "cabtrace":
        raise InvalidInputError(f"unknown trip format {fmt!r}")

    if os.path.isdir(path):
        files = sorted(os.path.join(path, f) for f in os.listdir(path)
                       if not f.startswith("."))
    else:
        files = [path]
    trips = [(t0, plon, plat, dlon, dlat) for f in files
             for (t0, plat, plon), (_, dlat, dlon) in _trace_trips(_read_trace(f))]
    return _sorted_table(np.array(trips, dtype=float).reshape(-1, 5), ref=ref)


# --- synthetic workloads ------------------------------------------------------


@dataclass
class DemandFlow:
    """One origin-destination stream with a daily rate profile.

    ``profile`` lists ``(start_hour, end_hour, trips_per_hour)`` windows
    over the 24 h day; the rate is zero outside them.  Request points are
    jittered around the endpoints with isotropic normal ``spread`` meters.

    ``day_jitter`` scales each day's rates by one lognormal draw (unit
    mean, the given log-sigma), so days repeat the same shape at varying
    intensity.  ``peak_jitter`` slides the whole profile by one normal
    draw (hours) per day, clamped so every window stays inside its day;
    an all-day window therefore never moves.  ``rate_at`` and
    ``expected_trips`` describe the unjittered profile, which both
    jitters match in expectation.
    """

    origin: tuple[float, float]
    dest: tuple[float, float]
    spread: float
    profile: list[tuple[float, float, float]] = field(default_factory=list)
    day_jitter: float = 0.0
    peak_jitter: float = 0.0

    def __post_init__(self):
        for name in ("spread", "day_jitter", "peak_jitter"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise InvalidInputError(f"{name} must be finite and >= 0, got {value}")
        for h0, h1, rate in self.profile:
            if not (0.0 <= h0 < h1 <= 24.0):
                raise InvalidInputError(
                    f"profile window ({h0}, {h1}) must satisfy 0 <= start < end <= 24")
            if not (math.isfinite(rate) and rate >= 0):
                raise InvalidInputError(f"profile rates must be finite and >= 0, got {rate}")

    def rate_at(self, hour_of_day: float) -> float:
        """Trips per hour at a moment of the day (windows are [start, end))."""
        h = hour_of_day % 24.0
        return sum(rate for h0, h1, rate in self.profile if h0 <= h < h1)

    def expected_trips(self, t0: float, t1: float, day_origin: float) -> float:
        """Integral of the rate over the epoch window [t0, t1)."""
        if t1 <= t0:
            return 0.0
        total = 0.0
        for h0, h1, rate in self.profile:
            if rate == 0.0:
                continue
            # Walk whole days that overlap [t0, t1).
            first_day = np.floor((t0 - day_origin) / DAY)
            last_day = np.floor((t1 - day_origin) / DAY)
            for d in np.arange(first_day, last_day + 1):
                w0 = day_origin + d * DAY + h0 * HOUR
                w1 = day_origin + d * DAY + h1 * HOUR
                overlap = min(t1, w1) - max(t0, w0)
                if overlap > 0:
                    total += rate * overlap / HOUR
        return total


def synth_demand(flows: list[DemandFlow], start_epoch: float, days: float,
                 seed: int) -> TripTable:
    """Sample a piecewise-constant Poisson workload over whole-day windows.

    Each flow draws a Poisson count per daily rate window and scatters the
    request times uniformly inside it, which is exact for constant rates.
    Flows sample from independent child generators, so adding a flow never
    reshuffles the others.
    """
    if not flows:
        raise InvalidInputError("at least one demand flow is required")
    if not (math.isfinite(days) and days > 0):
        raise InvalidInputError(f"days must be finite and positive, got {days}")
    children = np.random.SeedSequence(seed).spawn(len(flows))
    times, origins, dests = [], [], []
    n_days = int(np.ceil(days))
    end_epoch = start_epoch + days * DAY
    for flow, child in zip(flows, children):
        rng = np.random.Generator(np.random.PCG64(child))
        for d in range(n_days):
            day0 = start_epoch + d * DAY
            scale = 1.0
            if flow.day_jitter > 0.0:
                # Unit-mean lognormal, so expected_trips stays honest.
                scale = float(rng.lognormal(-0.5 * flow.day_jitter**2,
                                            flow.day_jitter))
            shift = 0.0
            if flow.peak_jitter > 0.0:
                shift = float(rng.normal(0.0, flow.peak_jitter))
            for h0, h1, rate in flow.profile:
                # Clamping keeps the window length, so the day total holds.
                s = min(max(shift, -h0), 24.0 - h1)
                w0 = day0 + (h0 + s) * HOUR
                w1 = min(day0 + (h1 + s) * HOUR, end_epoch)
                if w1 <= w0 or rate == 0.0:
                    continue
                count = int(rng.poisson(scale * rate * (w1 - w0) / HOUR))
                if count == 0:
                    continue
                ts = rng.uniform(w0, w1, size=count)
                o = rng.normal(loc=flow.origin, scale=max(flow.spread, 1e-12),
                               size=(count, 2))
                t_ = rng.normal(loc=flow.dest, scale=max(flow.spread, 1e-12),
                                size=(count, 2))
                times.append(ts)
                origins.append(o)
                dests.append(t_)
    if not times:
        raise InvalidInputError("demand profiles produced no trips")
    times = np.concatenate(times)
    origins = np.vstack(origins)
    dests = np.vstack(dests)
    order = np.argsort(times, kind="stable")
    return TripTable(times=times[order], origins=origins[order],
                     dests=dests[order])
