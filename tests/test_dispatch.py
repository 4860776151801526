"""Minimum-cost pickup matching against brute-force permutation oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from amodcc.dispatch import assign_pickups, distance_cost_matrix
from amodcc.errors import InvalidInputError


def brute_min_cost(cost):
    """Minimum total over all maximal matchings (permutation oracle)."""
    cost = np.asarray(cost, dtype=float)
    n, m = cost.shape
    if n <= m:
        return min(sum(cost[i, perm[i]] for i in range(n))
                   for perm in itertools.permutations(range(m), n))
    return min(sum(cost[perm[j], j] for j in range(m))
               for perm in itertools.permutations(range(n), m))


def matched_total(vehicles, requests):
    pairs = assign_pickups(vehicles, requests)
    cost = distance_cost_matrix(vehicles, requests)
    return pairs, sum(cost[v, r] for v, r in pairs)


class TestHungarian:
    """The exact matching behind ``assign_pickups``."""

    def test_one_by_one(self):
        pairs, total = matched_total([[0.0, 0.0]], [[3.0, 4.0]])
        assert pairs == [(0, 0)] and total == 5.0

    def test_two_by_two(self):
        pairs, total = matched_total([[0.0, 0.0], [10.0, 0.0]], [[0.0, 1.0], [10.0, 1.0]])
        assert pairs == [(0, 0), (1, 1)] and total == 2.0

    def test_empty(self):
        assert assign_pickups(np.zeros((0, 2)), np.zeros((3, 2))) == []
        assert assign_pickups(np.zeros((3, 2)), np.zeros((0, 2))) == []
        assert assign_pickups(np.zeros((0, 2)), np.zeros((0, 2))) == []

    def test_square_matches_brute_force(self):
        # Integer coordinates on a small grid: many equal distances.
        rng = np.random.default_rng(0)
        for trial in range(120):
            n = int(rng.integers(2, 7))
            vehicles = rng.integers(0, 8, size=(n, 2)).astype(float)
            requests = rng.integers(0, 8, size=(n, 2)).astype(float)
            cost = distance_cost_matrix(vehicles, requests)
            pairs, total = matched_total(vehicles, requests)
            assert total == pytest.approx(brute_min_cost(cost))
            rows = [r for r, _ in pairs]
            cols = [c for _, c in pairs]
            assert rows == list(range(n))
            assert len(set(cols)) == n

    def test_rectangular_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for trial in range(60):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 6))
            vehicles = rng.uniform(0, 100, size=(n, 2))
            requests = rng.uniform(0, 100, size=(m, 2))
            pairs, total = matched_total(vehicles, requests)
            assert len(pairs) == min(n, m)
            assert total == pytest.approx(
                brute_min_cost(distance_cost_matrix(vehicles, requests)))

    def test_wide_and_tall_agree_by_transpose(self):
        rng = np.random.default_rng(2)
        vehicles = rng.uniform(0, 10, size=(3, 2))
        requests = rng.uniform(0, 10, size=(7, 2))
        _, wide = matched_total(vehicles, requests)
        _, tall = matched_total(requests, vehicles)
        assert wide == pytest.approx(tall)

    def test_tie_breaking_is_deterministic(self):
        # All vehicles at one point and all requests at another: every
        # matching is optimal; the identity wins.
        pairs, total = matched_total(np.zeros((4, 2)), np.ones((4, 2)))
        assert pairs == [(0, 0), (1, 1), (2, 2), (3, 3)]
        assert total == pytest.approx(4.0 * np.sqrt(2.0))

    def test_duplicate_runs_identical(self):
        rng = np.random.default_rng(3)
        vehicles = rng.integers(0, 3, size=(6, 2)).astype(float)
        requests = rng.integers(0, 3, size=(6, 2)).astype(float)
        assert assign_pickups(vehicles, requests) == \
            assign_pickups(vehicles.copy(), requests.copy())

    def test_rejects_nan_and_bad_shape(self):
        with pytest.raises(InvalidInputError):
            assign_pickups([[0.0, float("nan")], [2.0, 3.0]], [[1.0, 1.0]])
        with pytest.raises(ValueError):
            assign_pickups(np.zeros(3), np.zeros((1, 2)))

    def test_large_instance_runs_fast(self):
        rng = np.random.default_rng(4)
        vehicles = rng.uniform(0, 1e4, size=(120, 2))
        requests = rng.uniform(0, 1e4, size=(150, 2))
        cost = distance_cost_matrix(vehicles, requests)
        pairs, total = matched_total(vehicles, requests)
        assert len(pairs) == 120
        # sanity: optimal total is no worse than greedy row-by-row
        taken = set()
        greedy = 0.0
        for i in range(120):
            order = np.argsort(cost[i])
            j = next(int(c) for c in order if int(c) not in taken)
            taken.add(j)
            greedy += cost[i, j]
        assert total <= greedy + 1e-9


# Vehicles are drawn from a few sites, so several often share coordinates.
_points = st.tuples(st.integers(0, 20), st.integers(0, 20))


@st.composite
def fleets_and_requests(draw):
    sites = draw(st.lists(_points, min_size=1, max_size=3))
    vehicles = draw(st.lists(st.sampled_from(sites), min_size=1, max_size=6))
    requests = draw(st.lists(_points, min_size=1, max_size=6))
    return np.array(vehicles, dtype=float), np.array(requests, dtype=float)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(instance=fleets_and_requests())
def test_matching_is_complete_and_optimal(instance):
    vehicles, requests = instance
    pairs, total = matched_total(vehicles, requests)
    assert len(pairs) == min(len(vehicles), len(requests))
    assert len({v for v, _ in pairs}) == len(pairs)
    assert len({r for _, r in pairs}) == len(pairs)
    best = brute_min_cost(distance_cost_matrix(vehicles, requests))
    assert abs(total - best) <= 1e-9 * max(1.0, best)


def scipy_pairs(vehicles, requests):
    """SciPy's matching of the vehicles x requests matrix, pairs sorted by
    vehicle: the rule ``assign_pickups`` keeps while it builds the matrix
    the other way round or takes a lone request's argmin."""
    cost = distance_cost_matrix(vehicles, requests)
    if cost.size == 0:
        return []
    rows, cols = linear_sum_assignment(cost)
    return list(zip(rows.tolist(), cols.tolist()))


# (vehicles, requests) counts of each orientation and shortcut.
_SHAPES = {
    "one request": st.tuples(st.integers(1, 8), st.just(1)),
    "fewer requests": st.integers(3, 8).flatmap(
        lambda v: st.tuples(st.just(v), st.integers(2, v - 1))),
    "square": st.integers(2, 6).map(lambda n: (n, n)),
    "more requests": st.integers(1, 6).flatmap(
        lambda v: st.tuples(st.just(v), st.integers(v + 1, 8))),
}
# A 4 x 4 integer grid: points share coordinates and distances tie often.
_grid_point = st.tuples(st.integers(0, 3), st.integers(0, 3))


@pytest.mark.parametrize("shape", list(_SHAPES))
@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_pairs_are_scipys_on_vehicles_by_requests(shape, data):
    n_vehicles, n_requests = data.draw(_SHAPES[shape])
    vehicles = np.array(data.draw(st.lists(_grid_point, min_size=n_vehicles,
                                           max_size=n_vehicles)), dtype=float)
    requests = np.array(data.draw(st.lists(_grid_point, min_size=n_requests,
                                           max_size=n_requests)), dtype=float)
    assert assign_pickups(vehicles, requests) == scipy_pairs(vehicles, requests)


@pytest.mark.parametrize("shape", [(1, 1), (5, 1), (5, 3), (3, 3), (3, 5)])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", ["vehicle", "request"])
def test_non_finite_coordinates_raise_in_every_orientation(shape, bad, side):
    rng = np.random.default_rng(7)
    vehicles = rng.integers(0, 4, size=(shape[0], 2)).astype(float)
    requests = rng.integers(0, 4, size=(shape[1], 2)).astype(float)
    (vehicles if side == "vehicle" else requests)[-1, 1] = bad
    with pytest.raises(InvalidInputError, match="must be finite"):
        assign_pickups(vehicles, requests)


class TestPickupAssignment:
    def test_distance_matrix(self):
        a = np.array([[0.0, 0.0], [3.0, 4.0]])
        b = np.array([[0.0, 0.0]])
        d = distance_cost_matrix(a, b)
        assert d.shape == (2, 1)
        assert d[0, 0] == 0.0 and d[1, 0] == 5.0

    def test_matches_nearest_when_disjoint(self):
        vehicles = np.array([[0.0, 0.0], [100.0, 0.0]])
        requests = np.array([[99.0, 0.0], [1.0, 0.0]])
        pairs = assign_pickups(vehicles, requests)
        assert sorted(pairs) == [(0, 1), (1, 0)]

    def test_total_beats_any_swap(self):
        rng = np.random.default_rng(9)
        vehicles = rng.uniform(0, 1000, size=(5, 2))
        requests = rng.uniform(0, 1000, size=(8, 2))
        cost = distance_cost_matrix(vehicles, requests)
        pairs = assign_pickups(vehicles, requests)
        total = sum(cost[v, r] for v, r in pairs)
        assert total == pytest.approx(brute_min_cost(cost))

    def test_empty_sides(self):
        assert assign_pickups(np.zeros((0, 2)), np.array([[1.0, 2.0]])) == []
        assert assign_pickups(np.array([[1.0, 2.0]]), np.zeros((0, 2))) == []

    def test_distance_matrix_is_the_plain_formula_bit_for_bit(self):
        # Matching tie-breaks depend on the exact bits of every cost, so the
        # in-place computation must equal sqrt(dx*dx + dy*dy) exactly.
        rng = np.random.default_rng(14)
        for k in range(240):
            n, m = rng.integers(0, 12, size=2)
            if k % 40 == 0:
                n = 0
            elif k % 40 == 1:
                m = 0
            a = rng.uniform(-1e4, 1e4, size=(n, 2))
            b = rng.uniform(-1e4, 1e4, size=(m, 2))
            if k % 3 == 0 and n and m:
                b[rng.integers(m)] = a[rng.integers(n)]     # coincident points
                a[rng.integers(n)] = a[0]
            dx = a[:, 0, None] - b[None, :, 0]
            dy = a[:, 1, None] - b[None, :, 1]
            want = np.sqrt(dx * dx + dy * dy)
            got = distance_cost_matrix(a, b)
            assert got.shape == (n, m) and got.dtype == np.float64
            assert got.tobytes() == want.tobytes()
