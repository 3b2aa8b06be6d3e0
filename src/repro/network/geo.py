"""Geodesic helpers: haversine distances and bounding boxes.

All distances are great-circle (haversine) kilometres. The helpers are
vectorised: :func:`pairwise_distances_km` computes the full N×N matrix in NumPy
broadcasts rather than a Python double loop, which matters for the 496-site CDN
analysis. For planetary-scale footprints (10k+ sites) the broadcast temporaries
of a single full evaluation (five N×N float64 intermediates) dominate peak
memory, so the matrix is evaluated in row blocks: each block runs the exact
same elementwise expressions over a row slice, which is byte-identical to the
single-shot broadcast because every operation is elementwise in the row
dimension.
"""

from __future__ import annotations

import numpy as np

#: Mean Earth radius in kilometres.
EARTH_RADIUS_KM: float = 6371.0088

#: Row-block height for chunked pairwise evaluation. At 4096 rows the largest
#: transient is ~4096×N float64 — ~330 MB at N=10k instead of ~4 GB per
#: temporary for the full broadcast. Results are byte-identical for every
#: block height: each block evaluates the same elementwise expressions over
#: its row slice.
CHUNK_ROWS: int = 4096


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in kilometres between two (lat, lon) points in degrees."""
    phi1, phi2 = np.radians(lat1), np.radians(lat2)
    dphi = phi2 - phi1
    dlmb = np.radians(lon2 - lon1)
    a = np.sin(dphi / 2.0) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(dlmb / 2.0) ** 2
    return float(2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(a)))


def _haversine_block(a_block: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Haversine distances of one radian-coordinate row block against all of ``b``."""
    lat1 = a_block[:, 0][:, None]
    lon1 = a_block[:, 1][:, None]
    lat2 = b[:, 0][None, :]
    lon2 = b[:, 1][None, :]
    dphi = lat2 - lat1
    dlmb = lon2 - lon1
    s = np.sin(dphi / 2.0) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dlmb / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(s, 0.0, 1.0)))


def pairwise_distances_km(coords: np.ndarray,
                          coords_b: np.ndarray | None = None) -> np.ndarray:
    """Pairwise haversine distances between coordinate sets.

    Inputs taller than :data:`CHUNK_ROWS` are evaluated in row blocks of that
    height, byte-identically to the single-block broadcast.

    Parameters
    ----------
    coords:
        (N, 2) array of [lat, lon] in degrees.
    coords_b:
        Optional (M, 2) array; when omitted the function returns the symmetric
        N×N matrix of ``coords`` against itself.

    Returns
    -------
    numpy.ndarray
        (N, M) distance matrix in kilometres.
    """
    a = np.radians(np.atleast_2d(np.asarray(coords, dtype=float)))
    b = a if coords_b is None else np.radians(np.atleast_2d(np.asarray(coords_b, dtype=float)))
    if a.shape[1] != 2 or b.shape[1] != 2:
        raise ValueError("coordinate arrays must have shape (N, 2) of [lat, lon]")
    n = a.shape[0]
    if n <= CHUNK_ROWS:
        return _haversine_block(a, b)
    out = np.empty((n, b.shape[0]), dtype=float)
    for start in range(0, n, CHUNK_ROWS):
        stop = min(start + CHUNK_ROWS, n)
        out[start:stop] = _haversine_block(a[start:stop], b)
    return out


def bounding_box(coords: np.ndarray) -> dict[str, float]:
    """Bounding box of a coordinate set with its width/height in kilometres.

    Mirrors the "807 km × 712 km" style annotations on the paper's Figure 2.
    """
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    lat_min, lat_max = float(coords[:, 0].min()), float(coords[:, 0].max())
    lon_min, lon_max = float(coords[:, 1].min()), float(coords[:, 1].max())
    mid_lat = 0.5 * (lat_min + lat_max)
    height_km = haversine_km(lat_min, lon_min, lat_max, lon_min)
    width_km = haversine_km(mid_lat, lon_min, mid_lat, lon_max)
    return {
        "lat_min": lat_min,
        "lat_max": lat_max,
        "lon_min": lon_min,
        "lon_max": lon_max,
        "width_km": width_km,
        "height_km": height_km,
    }
