"""Station network model: planar geometry, k-means partitioning, travel matrices.

All geometry is planar, in meters.  Longitude/latitude inputs are projected
once at ingestion (see :func:`project_lonlat`) and never touched again.

Every point reaches a station through one lookup, :func:`assign_stations`
(and, inside k-means, the same ``_nearest``): the nearest centroid by
squared distance, ties to the lowest index, found by a running minimum
over the centroids, so its memory is O(M) for M points whatever the
number of stations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, number, read_lines

EARTH_RADIUS_M = 6_371_000.0


def project_lonlat(lon, lat, lon0: float, lat0: float):
    """Project lon/lat degrees to planar meters about a reference point.

    Equirectangular projection: adequate at city scale, exact enough that
    nearest-centroid assignments match great-circle ones for our use.
    """
    lon = np.asarray(lon, dtype=float)
    lat = np.asarray(lat, dtype=float)
    x = EARTH_RADIUS_M * np.radians(lon - lon0) * math.cos(math.radians(lat0))
    y = EARTH_RADIUS_M * np.radians(lat - lat0)
    return x, y


MAX_LLOYD_ITERS = 100     # iteration cap of kmeans_partition


def kmeans_partition(
    points: np.ndarray,
    n_stations: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Cluster request points into station regions.

    Lloyd's algorithm with k-means++ seeding, for at most
    :data:`MAX_LLOYD_ITERS` rounds.  Deterministic for a fixed seed.
    Emptied clusters are re-seeded to the point farthest from its
    current centroid, so every station region ends up non-empty.

    Parameters
    ----------
    points : (M, 2) array of planar coordinates.
    n_stations : number of clusters k, 2 <= k <= number of distinct points.
    seed : seed for the k-means++ draws.

    Returns
    -------
    centroids : (k, 2) array.
    labels : (M,) int array, labels[m] is the station of points[m].
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise InvalidInputError(f"points must be (M, 2), got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise InvalidInputError("points contain non-finite coordinates")
    if n_stations < 2:
        raise InvalidInputError(f"n_stations must be >= 2, got {n_stations}")
    distinct = np.unique(pts, axis=0)
    if distinct.shape[0] < n_stations:
        raise InvalidInputError(
            f"need at least {n_stations} distinct points, have {distinct.shape[0]}"
        )

    rng = np.random.Generator(np.random.PCG64(seed))
    centroids = _kmeans_pp_seed(pts, n_stations, rng)

    labels = _nearest(pts, centroids)
    for _ in range(MAX_LLOYD_ITERS):
        for k in range(n_stations):
            members = pts[labels == k]
            if members.shape[0] == 0:
                # Re-seed dead cluster to the globally worst-fit point.
                d = np.linalg.norm(pts - centroids[labels], axis=1)
                centroids[k] = pts[int(np.argmax(d))]
            else:
                centroids[k] = members.mean(axis=0)
        new_labels = _nearest(pts, centroids)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return centroids, labels


def _kmeans_pp_seed(pts: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = pts.shape[0]
    centroids = np.empty((k, 2), dtype=float)
    centroids[0] = pts[rng.integers(n)]
    d2 = np.sum((pts - centroids[0]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # All remaining mass sits on chosen centroids; pick uniformly.
            centroids[i] = pts[rng.integers(n)]
        else:
            centroids[i] = pts[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((pts - centroids[i]) ** 2, axis=1))
    return centroids


def _nearest(pts: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # One pass per centroid over (M,) buffers.  A point moves only on a
    # strictly smaller dx*dx + dy*dy, so ties stay on the lowest index, as
    # argmin over the (M, N) distances would keep them.
    x, y = pts[:, 0].copy(), pts[:, 1].copy()
    best = np.full(x.shape, np.inf)
    label = np.zeros(x.shape, dtype=np.intp)
    d, dy = np.empty_like(x), np.empty_like(x)
    closer = np.empty(x.shape, dtype=bool)
    for k, (cx, cy) in enumerate(centroids.tolist()):
        np.subtract(x, cx, out=d)
        np.multiply(d, d, out=d)
        np.subtract(y, cy, out=dy)
        np.multiply(dy, dy, out=dy)
        d += dy
        np.less(d, best, out=closer)
        np.minimum(best, d, out=best)
        np.putmask(label, closer, k)
    return label


def assign_stations(centroids: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Index of the nearest centroid to each of (M, 2) points; ties go to
    the lowest index."""
    return _nearest(np.asarray(points, dtype=float), np.asarray(centroids, dtype=float))


def _kappa(time: np.ndarray, step_seconds: float) -> np.ndarray:
    """Whole model steps per trip: ``max(1, round(time / step_seconds))``
    off the diagonal, rounding halves up, and 0 on it."""
    kappa = np.maximum(1, np.floor(time / step_seconds + 0.5)).astype(int)
    np.fill_diagonal(kappa, 0)
    return kappa


def build_travel_matrices(
    centroids: np.ndarray,
    speed_mps: float,
    step_seconds: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Euclidean travel time/distance between centroids plus step counts.

    Returns ``(travel_time, travel_distance, kappa)``.  ``kappa[i][j]`` is
    the whole number of model steps a trip i -> j occupies:
    ``max(1, round(time / step_seconds))`` off the diagonal, 0 on it.
    """
    c = _checked_centroids(centroids, speed_mps, step_seconds)
    dist = np.linalg.norm(c[:, None, :] - c[None, :, :], axis=2)
    time = dist / speed_mps
    return time, dist, _kappa(time, step_seconds)


def _checked_centroids(centroids, speed_mps: float, step_seconds: float) -> np.ndarray:
    """The centroids as a float array, once they and both scales are finite
    and the scales positive."""
    for name, value in (("speed_mps", speed_mps), ("step_seconds", step_seconds)):
        if not (math.isfinite(value) and value > 0):
            raise InvalidInputError(f"{name} must be finite and positive, got {value}")
    c = np.asarray(centroids, dtype=float)
    if not np.isfinite(c).all():
        raise InvalidInputError("centroids must be finite")
    return c


@dataclass
class StationNetwork:
    """A complete station graph with travel matrices and model step size."""

    centroids: np.ndarray          # (N, 2) meters
    travel_time: np.ndarray        # (N, N) seconds
    travel_distance: np.ndarray    # (N, N) meters
    kappa: np.ndarray              # (N, N) whole model steps
    step_seconds: float
    speed_mps: float
    # (lon0, lat0) the plane was projected about, when built from trip data;
    # later ingestion must reuse it so coordinates stay comparable.
    projection: tuple[float, float] | None = None

    def __post_init__(self):
        self.centroids = _checked_centroids(self.centroids, self.speed_mps,
                                            self.step_seconds)
        self.travel_time = np.asarray(self.travel_time, dtype=float)
        self.travel_distance = np.asarray(self.travel_distance, dtype=float)
        self.kappa = np.asarray(self.kappa, dtype=int)
        n = self.n_stations
        if n < 2:
            raise InvalidInputError(f"need at least 2 stations, got {n}")
        if len({(x, y) for x, y in self.centroids.tolist()}) != n:
            raise InvalidInputError("centroids must be distinct")
        for name, m in (("travel_time", self.travel_time),
                        ("travel_distance", self.travel_distance)):
            if m.shape != (n, n):
                raise InvalidInputError(f"{name} must be ({n}, {n}), got {m.shape}")
            if not np.all(np.isfinite(m)) or np.any(m < 0):
                raise InvalidInputError(f"{name} entries must be finite and >= 0")
            if np.any(np.diag(m) != 0):
                raise InvalidInputError(f"{name} diagonal must be zero")
        if self.kappa.shape != (n, n):
            raise InvalidInputError(f"kappa must be ({n}, {n})")
        if np.any(np.diag(self.kappa) != 0):
            raise InvalidInputError("kappa diagonal must be zero")
        off = ~np.eye(n, dtype=bool)
        if np.any(self.kappa[off] < 1):
            raise InvalidInputError("off-diagonal kappa entries must be >= 1")

    @property
    def n_stations(self) -> int:
        return self.centroids.shape[0]

    @classmethod
    def from_centroids(
        cls,
        centroids: np.ndarray,
        speed_mps: float,
        step_seconds: float,
    ) -> "StationNetwork":
        time, dist, kappa = build_travel_matrices(centroids, speed_mps, step_seconds)
        return cls(
            centroids=np.asarray(centroids, dtype=float),
            travel_time=time,
            travel_distance=dist,
            kappa=kappa,
            step_seconds=step_seconds,
            speed_mps=speed_mps,
        )


@dataclass
class FleetState:
    """Controller-visible fleet snapshot at a control instant.

    ``idle[i]`` counts vehicles parked in station i right now.  ``arrivals``
    lists vehicles already in motion as ``(station, steps_from_now)`` pairs
    with ``steps_from_now >= 1``; they become available when they land.
    """

    idle: np.ndarray                                # (N,) int
    arrivals: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self):
        self.idle = np.asarray(self.idle, dtype=int)
        if np.any(self.idle < 0):
            raise InvalidInputError("idle counts must be >= 0")
        for st, k in self.arrivals:
            if k < 1:
                raise InvalidInputError(f"arrival step must be >= 1, got {k}")
            if not 0 <= st < self.idle.shape[0]:
                raise InvalidInputError(f"arrival station {st} out of range")

    def arrival_counts(self, horizon: int) -> np.ndarray:
        """(N, horizon+1) matrix of known in-transit arrivals per step."""
        n = self.idle.shape[0]
        counts = np.zeros((n, horizon + 1), dtype=int)
        for st, k in self.arrivals:
            if k <= horizon:
                counts[st, k] += 1
        return counts

    @property
    def total(self) -> int:
        return int(self.idle.sum()) + len(self.arrivals)


def outstanding_matrix(n_stations: int, pairs) -> np.ndarray:
    """(N, N) matrix of waiting-request counts from (origin, dest) pairs."""
    m = np.zeros((n_stations, n_stations), dtype=int)
    for i, j in pairs:
        m[i, j] += 1
    return m


# --- network file round-trip ------------------------------------------------

def save_network(path: str, net: StationNetwork) -> None:
    """Write a station network to the plain-text network format."""
    n = net.n_stations
    lines = ["# amodcc network v1",
             f"stations {n}",
             f"step_seconds {float(net.step_seconds)!r}",
             f"speed_mps {float(net.speed_mps)!r}"]
    if net.projection is not None:
        lines.append("projection "
                     f"{float(net.projection[0])!r} {float(net.projection[1])!r}")
    for i in range(n):
        lines.append(f"centroid {i} "
                     f"{float(net.centroids[i, 0])!r} {float(net.centroids[i, 1])!r}")
    euclid_time, euclid_dist, _ = build_travel_matrices(
        net.centroids, net.speed_mps, net.step_seconds)
    if not (np.array_equal(euclid_time, net.travel_time)
            and np.array_equal(euclid_dist, net.travel_distance)):
        for i in range(n):
            for j in range(n):
                lines.append(f"travel_time {i} {j} {float(net.travel_time[i, j])!r}")
        for i in range(n):
            for j in range(n):
                lines.append(
                    f"travel_distance {i} {j} {float(net.travel_distance[i, j])!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _put(entries: dict, key, value, name: str) -> None:
    """Record one indexed line's value; an index given twice is an error."""
    if key in entries:
        raise ValueError(f"repeated {name} {key}")
    entries[key] = value


def load_network(path: str) -> StationNetwork:
    """Read a network file written by :func:`save_network`.

    Explicit travel matrices, when present, override the Euclidean builder;
    kappa is always rebuilt from the effective travel times.  A header
    key, centroid or travel-matrix entry given twice is invalid input, and
    so is a number out of its domain; the message names the line.
    """
    n = None
    step_seconds = None
    speed_mps = None
    projection = None
    centroids: dict[int, tuple[float, float]] = {}
    time_entries: dict[tuple[int, int], float] = {}
    dist_entries: dict[tuple[int, int], float] = {}
    header_lines: dict[str, int] = {}

    def entry(lineno: int, line: str) -> None:
        nonlocal n, step_seconds, speed_mps, projection
        parts = line.split()
        key = parts[0]
        if key in ("stations", "step_seconds", "speed_mps", "projection"):
            if key in header_lines:
                raise ValueError(f"repeated {key}, first at line {header_lines[key]}")
            header_lines[key] = lineno
        if key == "stations":
            n = int(parts[1])
        elif key == "step_seconds":
            step_seconds = number(parts[1], key, "finite and positive")
        elif key == "speed_mps":
            speed_mps = number(parts[1], key, "finite and positive")
        elif key == "bbox":
            pass    # a bounding box written by earlier versions; unused
        elif key == "projection":
            projection = (number(parts[1], key), number(parts[2], key))
            if len(parts) != 3:
                raise ValueError("projection needs lon0 lat0")
        elif key == "centroid":
            _put(centroids, int(parts[1]),
                 (number(parts[2], key), number(parts[3], key)), key)
            if len(parts) != 4:
                raise ValueError("centroid needs index x y")
        elif key == "travel_time":
            _put(time_entries, (int(parts[1]), int(parts[2])),
                 number(parts[3], key, "finite and >= 0"), key)
        elif key == "travel_distance":
            _put(dist_entries, (int(parts[1]), int(parts[2])),
                 number(parts[3], key, "finite and >= 0"), key)
        else:
            raise ValueError(f"unknown key {key!r}")

    read_lines(path, entry)

    if n is None or step_seconds is None or speed_mps is None:
        raise InvalidInputError(f"{path}: missing stations/step_seconds/speed_mps")
    if sorted(centroids) != list(range(n)):
        raise InvalidInputError(f"{path}: expected centroids 0..{n - 1}")
    cent = np.array([centroids[i] for i in range(n)], dtype=float)

    time, dist, kappa = build_travel_matrices(cent, speed_mps, step_seconds)
    if time_entries or dist_entries:
        if len(time_entries) != n * n or len(dist_entries) != n * n:
            raise InvalidInputError(
                f"{path}: explicit matrices must list all {n * n} entries each")
        for (i, j), v in time_entries.items():
            time[i, j] = v
        for (i, j), v in dist_entries.items():
            dist[i, j] = v
        kappa = _kappa(time, step_seconds)

    return StationNetwork(
        centroids=cent,
        travel_time=time,
        travel_distance=dist,
        kappa=kappa,
        step_seconds=step_seconds,
        speed_mps=speed_mps,
        projection=projection,
    )
