"""Latency model and matrix tests (calibrated against the paper's Table 1)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.network.latency import (
    LatencyMatrix,
    LatencyModel,
    build_latency_matrix,
    build_latency_matrix_fast,
)


def test_zero_distance_zero_latency():
    assert LatencyModel().one_way_ms(0.0) == 0.0


def test_latency_grows_with_distance():
    model = LatencyModel()
    assert model.one_way_ms(100.0) < model.one_way_ms(500.0) < model.one_way_ms(2000.0)


def test_cross_border_inflation_range_wider():
    model = LatencyModel()
    low_i, high_i = model.intra_inflation
    low_x, high_x = model.inter_inflation
    assert high_x > high_i and low_x >= low_i


def test_per_pair_inflation_deterministic():
    model = LatencyModel()
    a = model.one_way_ms(400.0, cross_border=True, pair_key=("A", "B"))
    b = model.one_way_ms(400.0, cross_border=True, pair_key=("B", "A"))
    assert a == pytest.approx(b)


def test_negative_distance_rejected():
    with pytest.raises(ValueError):
        LatencyModel().one_way_ms(-1.0)


@given(st.floats(min_value=1.0, max_value=5000.0))
def test_latency_bounds_property(distance_km):
    model = LatencyModel()
    latency = model.one_way_ms(distance_km, cross_border=True, pair_key=("x", "y"))
    # Never faster than straight-line fibre, never slower than 6x the fibre time + base.
    assert latency >= distance_km / 200.0
    assert latency <= model.base_ms + distance_km / 200.0 * 6.0


def test_florida_pairs_in_table1_band(city_catalog):
    from repro.datasets.regions import FLORIDA
    cities = FLORIDA.cities(city_catalog)
    names = [c.name for c in cities]
    matrix = build_latency_matrix(names, city_catalog.coordinates_array(names),
                                  countries=[c.state for c in cities])
    # Paper Table 1a: 1.86 - 7.2 ms one-way.
    off_diag = matrix.matrix_ms[~np.eye(5, dtype=bool)]
    assert off_diag.min() >= 0.5
    assert off_diag.max() <= 12.0


def test_central_eu_pairs_in_table1_band(central_eu_latency):
    # Paper Table 1b: up to ~16.2 ms one-way (Graz-Lyon).
    off_diag = central_eu_latency.matrix_ms[~np.eye(5, dtype=bool)]
    assert off_diag.max() <= 25.0
    assert off_diag.max() >= 6.0


def test_matrix_lookup_and_rtt(central_eu_latency):
    one_way = central_eu_latency.one_way_ms("Bern", "Munich")
    assert central_eu_latency.round_trip_ms("Bern", "Munich") == pytest.approx(2 * one_way)
    assert central_eu_latency.one_way_ms("Bern", "Bern") == 0.0


def test_matrix_neighbors_within(central_eu_latency):
    all_neighbors = central_eu_latency.neighbors_within("Bern", 1000.0)
    assert len(all_neighbors) == 4
    assert central_eu_latency.neighbors_within("Bern", 0.01) == []


def test_matrix_submatrix(central_eu_latency):
    sub = central_eu_latency.submatrix(["Bern", "Milan"])
    assert sub.names == ["Bern", "Milan"]
    assert sub.one_way_ms("Bern", "Milan") == pytest.approx(
        central_eu_latency.one_way_ms("Bern", "Milan"))


def test_matrix_validation():
    with pytest.raises(ValueError):
        LatencyMatrix(names=["a", "b"], matrix_ms=np.zeros((3, 3)))
    with pytest.raises(ValueError):
        LatencyMatrix(names=["a", "a"], matrix_ms=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        LatencyMatrix(names=["a", "b"], matrix_ms=np.array([[0.0, -1.0], [1.0, 0.0]]))


def test_matrix_unknown_name(central_eu_latency):
    with pytest.raises(KeyError):
        central_eu_latency.one_way_ms("Bern", "Atlantis")


def test_build_matrix_shape_mismatch(city_catalog):
    with pytest.raises(ValueError):
        build_latency_matrix(["Miami"], city_catalog.coordinates_array(["Miami", "Bern"]))


def test_mean_off_diagonal_single_site():
    matrix = LatencyMatrix(names=["only"], matrix_ms=np.zeros((1, 1)))
    assert matrix.mean_off_diagonal() == 0.0


@pytest.mark.parametrize("seed", range(4))
def test_fast_builder_is_the_midpoint_of_the_per_pair_envelope(seed):
    """The planetary builder applies each pair class's midpoint inflation:
    with a one-point inflation range it is the per-pair builder bit for bit,
    and with the default ranges every per-pair latency lies in the envelope
    whose midpoint the fast builder returns."""
    rng = np.random.default_rng(seed)
    n = 12
    names = [f"site-{i:02d}" for i in range(n)]
    coords = np.column_stack([rng.uniform(35.0, 55.0, n), rng.uniform(-10.0, 20.0, n)])
    countries = [str(c) for c in rng.choice(["A", "B", "C"], size=n)]
    fixed = LatencyModel(intra_inflation=(1.5, 1.5), inter_inflation=(3.0, 3.0))
    assert np.array_equal(
        build_latency_matrix_fast(names, coords, countries, fixed).matrix_ms,
        build_latency_matrix(names, coords, countries, fixed).matrix_ms)

    model = LatencyModel()
    fast = build_latency_matrix_fast(names, coords, countries, model).matrix_ms
    per_pair = build_latency_matrix(names, coords, countries, model).matrix_ms
    assert np.array_equal(fast, fast.T) and not np.diag(fast).any()
    # Off the diagonal both are base + distance / speed * inflation, so the
    # ratio of their distance terms is the per-pair draw over the midpoint.
    off = ~np.eye(n, dtype=bool)
    ratio = (per_pair - model.base_ms)[off] / (fast - model.base_ms)[off]
    cross = (np.array(countries)[:, None] != np.array(countries)[None, :])[off]
    low, high = (np.where(cross, model.inter_inflation[k], model.intra_inflation[k])
                 for k in (0, 1))
    mid = 0.5 * (low + high)
    assert np.all(ratio >= low / mid * (1 - 1e-12))
    assert np.all(ratio <= high / mid * (1 + 1e-12))
