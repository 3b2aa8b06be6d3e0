"""Geodesic helper tests."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.network import geo
from repro.network.geo import bounding_box, haversine_km, pairwise_distances_km


def test_haversine_zero_distance():
    assert haversine_km(40.0, -70.0, 40.0, -70.0) == 0.0


def test_haversine_known_distance_nyc_la():
    # New York -> Los Angeles is ~3940 km great circle.
    d = haversine_km(40.71, -74.01, 34.05, -118.24)
    assert 3800 <= d <= 4050


def test_haversine_symmetry():
    a = haversine_km(25.76, -80.19, 30.33, -81.66)
    b = haversine_km(30.33, -81.66, 25.76, -80.19)
    assert a == pytest.approx(b)


def test_pairwise_matches_scalar():
    coords = np.array([[25.76, -80.19], [30.33, -81.66], [28.54, -81.38]])
    matrix = pairwise_distances_km(coords)
    assert matrix.shape == (3, 3)
    assert np.allclose(np.diag(matrix), 0.0)
    assert matrix[0, 1] == pytest.approx(haversine_km(25.76, -80.19, 30.33, -81.66), rel=1e-9)
    assert np.allclose(matrix, matrix.T)


def test_pairwise_rectangular():
    a = np.array([[0.0, 0.0], [10.0, 10.0]])
    b = np.array([[0.0, 0.0], [5.0, 5.0], [20.0, 20.0]])
    matrix = pairwise_distances_km(a, b)
    assert matrix.shape == (2, 3)
    assert matrix[0, 0] == 0.0


def test_pairwise_rejects_bad_shape():
    with pytest.raises(ValueError):
        pairwise_distances_km(np.zeros((3, 3)))


def _random_coords(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.column_stack([rng.uniform(-70.0, 70.0, n),
                            rng.uniform(-180.0, 180.0, n)])


@pytest.mark.parametrize("square", [True, False], ids=["square", "rectangular"])
@pytest.mark.parametrize("chunk_rows", [1, 7, 333, 999])
def test_pairwise_row_blocks_are_byte_identical_to_one_block(chunk_rows, square):
    """Inputs taller than CHUNK_ROWS are evaluated in row blocks; every block
    height reproduces the single-block matrix byte for byte."""
    coords = _random_coords(1000, seed=0)
    other = None if square else _random_coords(37, seed=1)
    single = pairwise_distances_km(coords, other)  # 1000 rows: one block
    with mock.patch.object(geo, "CHUNK_ROWS", chunk_rows), \
            mock.patch.object(geo, "_haversine_block",
                              wraps=geo._haversine_block) as block:
        chunked = pairwise_distances_km(coords, other)
    assert block.call_count == -(-1000 // chunk_rows)
    assert chunked.shape == single.shape
    assert chunked.tobytes() == single.tobytes()


@given(st.floats(-60, 60), st.floats(-170, 170), st.floats(-60, 60), st.floats(-170, 170))
def test_haversine_triangle_inequality_with_midpoint(lat1, lon1, lat2, lon2):
    mid_lat, mid_lon = (lat1 + lat2) / 2, (lon1 + lon2) / 2
    direct = haversine_km(lat1, lon1, lat2, lon2)
    via_mid = haversine_km(lat1, lon1, mid_lat, mid_lon) + haversine_km(mid_lat, mid_lon, lat2, lon2)
    assert direct <= via_mid + 1e-6


def test_bounding_box_florida():
    coords = np.array([[30.33, -81.66], [25.76, -80.19], [27.95, -82.46],
                       [28.54, -81.38], [30.44, -84.28]])
    box = bounding_box(coords)
    assert box["lat_min"] == pytest.approx(25.76)
    assert box["lat_max"] == pytest.approx(30.44)
    # The paper annotates Florida as roughly 807 km x 712 km.
    assert 250 <= box["width_km"] <= 900
    assert 400 <= box["height_km"] <= 900


def test_bounding_box_single_point():
    box = bounding_box(np.array([[10.0, 10.0]]))
    assert box["width_km"] == 0.0 and box["height_km"] == 0.0
