"""Station partitioning, travel matrices, and the network file format."""

import math

import numpy as np
import pytest

from amodcc.errors import InvalidInputError
from amodcc.network import (
    EARTH_RADIUS_M,
    FleetState,
    StationNetwork,
    assign_stations,
    build_travel_matrices,
    kmeans_partition,
    load_network,
    outstanding_matrix,
    project_lonlat,
    save_network,
)


def brute_nearest(centroids, point):
    best, best_d = 0, math.inf
    for i, c in enumerate(centroids):
        d = math.hypot(c[0] - point[0], c[1] - point[1])
        if d < best_d:
            best, best_d = i, d
    return best


def sse(points, centroids, labels):
    return float(np.sum((points - centroids[labels]) ** 2))


class TestProjection:
    def test_equator_degree_scale(self):
        # One degree of longitude at the equator is R * pi / 180 meters.
        x, y = project_lonlat(1.0, 0.0, 0.0, 0.0)
        assert x == pytest.approx(EARTH_RADIUS_M * math.pi / 180.0)
        assert y == pytest.approx(0.0)

    def test_latitude_shrinks_longitude(self):
        x60, _ = project_lonlat(1.0, 60.0, 0.0, 60.0)
        x0, _ = project_lonlat(1.0, 0.0, 0.0, 0.0)
        assert x60 == pytest.approx(x0 * math.cos(math.radians(60.0)))

    def test_reference_maps_to_origin(self):
        x, y = project_lonlat(-122.4, 37.75, -122.4, 37.75)
        assert x == 0.0 and y == 0.0


class TestKmeans:
    def test_labels_are_nearest_centroid(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(400, 2)) * 500.0
        centroids, labels = kmeans_partition(pts, 5, seed=1)
        for p, lab in zip(pts, labels):
            assert lab == brute_nearest(centroids, p)

    def test_centroids_are_cluster_means(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 1000, size=(300, 2))
        centroids, labels = kmeans_partition(pts, 4, seed=0)
        for i in range(4):
            members = pts[labels == i]
            assert len(members) > 0
            assert np.allclose(centroids[i], members.mean(axis=0))

    def test_single_swap_does_not_beat_converged_sse(self):
        # Local optimality: moving any single point to another cluster
        # (recomputing nothing) cannot reduce the assignment SSE.
        rng = np.random.default_rng(11)
        pts = np.vstack([rng.normal(loc=c, scale=30.0, size=(50, 2))
                         for c in ((0, 0), (500, 0), (0, 500))])
        centroids, labels = kmeans_partition(pts, 3, seed=5)
        base = sse(pts, centroids, labels)
        for idx in range(0, len(pts), 7):
            for other in range(3):
                if other == labels[idx]:
                    continue
                trial = labels.copy()
                trial[idx] = other
                assert sse(pts, centroids, trial) >= base - 1e-9

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(-100, 100, size=(200, 2))
        a_c, a_l = kmeans_partition(pts, 6, seed=42)
        b_c, b_l = kmeans_partition(pts, 6, seed=42)
        assert np.array_equal(a_c, b_c) and np.array_equal(a_l, b_l)

    def test_recovers_separated_blobs(self):
        rng = np.random.default_rng(2)
        centers = np.array([[0.0, 0.0], [10_000.0, 0.0], [0.0, 10_000.0]])
        pts = np.vstack([rng.normal(loc=c, scale=100.0, size=(80, 2))
                         for c in centers])
        centroids, _ = kmeans_partition(pts, 3, seed=0)
        found = sorted(tuple(np.round(c, -3)) for c in centroids)
        expect = sorted(tuple(c) for c in centers)
        assert np.allclose(found, expect, atol=500.0)

    def test_rejects_too_few_distinct_points(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(InvalidInputError):
            kmeans_partition(pts, 3, seed=0)

    def test_rejects_bad_station_count(self):
        pts = np.random.default_rng(0).normal(size=(50, 2))
        with pytest.raises(InvalidInputError):
            kmeans_partition(pts, 1, seed=0)


class TestAssignment:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        centroids = rng.uniform(0, 1000, size=(8, 2))
        pts = rng.uniform(0, 1000, size=(60, 2))
        got = assign_stations(centroids, pts)
        want = [brute_nearest(centroids, p) for p in pts]
        assert got.tolist() == want

    def test_matches_out_of_place_squared_distance_bit_for_bit(self):
        # Station assignment decides the demand grid and every request's
        # station, so the in-place sum must pick what dx*dx + dy*dy picks,
        # exact ties on a coarse grid included.
        rng = np.random.default_rng(6)
        for scale in (1000.0, 4.0):
            centroids = np.round(rng.uniform(0, scale, size=(10, 2)))
            pts = np.round(rng.uniform(0, scale, size=(500, 2)), 1)
            dx = pts[:, 0, None] - centroids[None, :, 0]
            dy = pts[:, 1, None] - centroids[None, :, 1]
            want = np.argmin(dx * dx + dy * dy, axis=1)
            assert np.array_equal(assign_stations(centroids, pts), want)

    def test_tie_goes_to_lowest_index(self):
        centroids = np.array([[0.0, 0.0], [2.0, 0.0]])
        pts = np.array([[1.0, 0.0], [1.0, 5.0], [1.5, 0.0]])
        assert assign_stations(centroids, pts).tolist() == [0, 0, 1]


class TestTravelMatrices:
    def test_kappa_rounding(self):
        # 450 s at step 900 rounds half up to 1; 1351 s rounds to 2.
        c = np.array([[0.0, 0.0], [4500.0, 0.0], [13510.0, 0.0]])
        _, _, kappa = build_travel_matrices(c, speed_mps=10.0, step_seconds=900.0)
        assert kappa[0, 1] == 1
        assert kappa[0, 2] == 2
        assert kappa[1, 2] == 1
        assert np.all(np.diag(kappa) == 0)

    def test_kappa_floor_is_one(self):
        c = np.array([[0.0, 0.0], [10.0, 0.0]])
        _, _, kappa = build_travel_matrices(c, speed_mps=10.0, step_seconds=900.0)
        assert kappa[0, 1] == 1

    def test_symmetry_and_diagonal(self):
        rng = np.random.default_rng(1)
        c = rng.uniform(0, 5000, size=(6, 2))
        t, d, kappa = build_travel_matrices(c, 10.0, 900.0)
        assert np.allclose(t, t.T) and np.allclose(d, d.T)
        assert np.all(np.diag(t) == 0) and np.all(np.diag(d) == 0)
        assert np.allclose(d / 10.0, t)


class TestStationNetwork:
    def test_from_centroids_round_trip(self, tmp_path):
        c = np.array([[0.0, 0.0], [3000.0, 0.0], [0.0, 4000.0]])
        net = StationNetwork.from_centroids(c, speed_mps=8.0, step_seconds=600.0)
        net.projection = (-122.4, 37.75)
        path = tmp_path / "net.txt"
        save_network(str(path), net)
        loaded = load_network(str(path))
        assert np.array_equal(loaded.centroids, net.centroids)
        assert np.array_equal(loaded.travel_time, net.travel_time)
        assert np.array_equal(loaded.travel_distance, net.travel_distance)
        assert np.array_equal(loaded.kappa, net.kappa)
        assert loaded.step_seconds == net.step_seconds
        assert loaded.projection == net.projection

    def test_explicit_matrices_round_trip(self, tmp_path):
        c = np.array([[0.0, 0.0], [3000.0, 0.0], [6000.0, 0.0]])
        net = StationNetwork.from_centroids(c, 10.0, 900.0)
        net.travel_time = np.array([[0.0, 700.0, 1350.0],
                                    [1300.0, 0.0, 2250.0],
                                    [100.0, 2249.0, 0.0]])
        net.travel_distance = np.array([[0.0, 3500.0, 6500.0],
                                        [3900.0, 0.0, 3100.0],
                                        [6200.0, 3000.0, 0.0]])
        path = tmp_path / "net.txt"
        save_network(str(path), net)
        loaded = load_network(str(path))
        assert np.array_equal(loaded.travel_time, net.travel_time)
        # kappa rebuilt from the effective times, halves rounded up:
        # 700/900 -> 1, 1350/900 = 1.5 -> 2, 1300/900 -> 1, 2250/900 = 2.5
        # -> 3, 100/900 -> 1 (the floor), 2249/900 -> 2
        assert loaded.kappa.tolist() == [[0, 1, 2], [1, 0, 3], [1, 2, 0]]

    def test_malformed_line_names_position(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("stations 2\nstep_seconds 900\nspeed_mps ten\n")
        with pytest.raises(InvalidInputError, match="line 3"):
            load_network(str(path))

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        with pytest.raises(InvalidInputError):
            load_network(str(path))

    def test_bbox_line_of_older_files_is_ignored(self, tmp_path):
        path = tmp_path / "old.txt"
        path.write_text("# amodcc network v1\nstations 2\nstep_seconds 900.0\n"
                        "speed_mps 10.0\nbbox -250.0 -250.0 1250.0 1250.0\n"
                        "centroid 0 0.0 0.0\ncentroid 1 1000.0 1000.0\n")
        loaded = load_network(str(path))
        net = StationNetwork.from_centroids(np.array([[0.0, 0.0], [1000.0, 1000.0]]),
                                            10.0, 900.0)
        assert np.array_equal(loaded.centroids, net.centroids)
        assert np.array_equal(loaded.kappa, net.kappa)
        assert not hasattr(loaded, "bbox")

    def test_repeated_entries_are_rejected(self, tmp_path):
        # A second line for a centroid or a travel-matrix entry is invalid
        # input, not an override; the message names its line.
        head = "stations 2\nstep_seconds 900.0\nspeed_mps 10.0\ncentroid 0 0.0 0.0\n"
        path = tmp_path / "net.txt"
        path.write_text(head + "centroid 1 1000.0 0.0\ncentroid 1 2000.0 0.0\n")
        with pytest.raises(InvalidInputError, match="line 6: .*repeated centroid 1"):
            load_network(str(path))
        times = "".join(f"travel_time {i} {j} {100.0 * (i != j)}\n"
                        for i in range(2) for j in range(2))
        path.write_text(head + "centroid 1 1000.0 0.0\n" + times + "travel_time 0 1 50.0\n")
        with pytest.raises(InvalidInputError, match=r"line 10: .*repeated travel_time \(0, 1\)"):
            load_network(str(path))

    def test_validation_catches_nonzero_diagonal(self):
        c = np.array([[0.0, 0.0], [1000.0, 0.0]])
        t, d, kappa = build_travel_matrices(c, 10.0, 900.0)
        t[0, 0] = 5.0
        with pytest.raises(InvalidInputError):
            StationNetwork(centroids=c, travel_time=t, travel_distance=d,
                           kappa=kappa, step_seconds=900.0, speed_mps=10.0)


class TestFleetState:
    def test_arrival_counts_drop_beyond_horizon(self):
        st = FleetState(idle=np.array([1, 0]), arrivals=[(0, 1), (1, 3), (0, 9)])
        counts = st.arrival_counts(3)
        assert counts.shape == (2, 4)
        assert counts[0, 1] == 1 and counts[1, 3] == 1
        assert counts.sum() == 2
        assert st.total == 4

    def test_rejects_zero_step_arrival(self):
        with pytest.raises(InvalidInputError):
            FleetState(idle=np.array([1]), arrivals=[(0, 0)])

    def test_outstanding_matrix_counts_pairs(self):
        m = outstanding_matrix(3, [(0, 1), (0, 1), (2, 0)])
        assert m[0, 1] == 2 and m[2, 0] == 1 and m.sum() == 3
