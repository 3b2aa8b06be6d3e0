"""Generation-mix model tests."""

import numpy as np
import pytest

from repro.carbon.energy_mix import (
    HourProfiles,
    demand_profile,
    hourly_mix_profile,
    hydro_capacity_factor,
    solar_capacity_factor,
    wind_capacity_factor,
)
from repro.carbon.synthetic import SyntheticTraceGenerator
from repro.datasets.electricity_maps import default_zone_catalog
from repro.utils.rng import substream


def test_solar_zero_at_night_positive_at_noon():
    hours = np.arange(24)
    cf = solar_capacity_factor(hours, seasonality=0.5)
    assert cf[0] == 0.0 and cf[3] == 0.0
    assert cf[13] == cf.max() > 0.5


def test_solar_summer_stronger_than_winter():
    winter_noon = solar_capacity_factor(np.array([12]), seasonality=0.8)[0]
    summer_noon = solar_capacity_factor(np.array([172 * 24 + 12]), seasonality=0.8)[0]
    assert summer_noon > winter_noon


def test_solar_no_seasonality_flat_across_year():
    winter = solar_capacity_factor(np.array([12]), seasonality=0.0)[0]
    summer = solar_capacity_factor(np.array([172 * 24 + 12]), seasonality=0.0)[0]
    assert winter == pytest.approx(summer, rel=1e-6)


def test_wind_bounds_and_determinism():
    rng1 = substream(0, "w")
    rng2 = substream(0, "w")
    a = wind_capacity_factor(500, 0.25, rng1)
    b = wind_capacity_factor(500, 0.25, rng2)
    assert np.array_equal(a, b)
    assert a.min() >= 0.1 and a.max() <= 1.0


def test_wind_rejects_non_positive_length():
    with pytest.raises(ValueError):
        wind_capacity_factor(0, 0.25, substream(0, "w"))


def test_hydro_seasonal_band():
    cf = hydro_capacity_factor(np.arange(8760))
    assert cf.min() >= 0.69 and cf.max() <= 1.01


def test_demand_profile_mean_near_one():
    demand = demand_profile(np.arange(8760))
    assert demand.mean() == pytest.approx(1.0, abs=0.05)
    assert demand.min() > 0.5


def test_hourly_mix_shares_sum_to_one():
    spec = default_zone_catalog().get("US-CA")
    mix = hourly_mix_profile(spec, n_hours=336, seed=1)
    mix.validate()
    total = sum(mix.shares.values())
    assert np.allclose(total, 1.0, atol=1e-3)


def test_hourly_mix_annual_shares_near_spec():
    spec = default_zone_catalog().get("EU-PL")
    mix = hourly_mix_profile(spec, n_hours=8760, seed=1)
    mean_shares = mix.mean_shares()
    # Coal-heavy Poland should remain coal-dominated in the hourly expansion.
    assert mean_shares.get("coal", 0.0) > 0.3


def test_hourly_mix_solar_zero_at_night():
    spec = default_zone_catalog().get("US-CA")
    mix = hourly_mix_profile(spec, n_hours=48, seed=1)
    assert mix.shares["solar"][2] == pytest.approx(0.0, abs=1e-9)
    assert mix.shares["solar"][13] > 0.0


def test_hourly_mix_intensity_positive():
    spec = default_zone_catalog().get("EU-FR")
    mix = hourly_mix_profile(spec, n_hours=168, seed=1)
    intensity = mix.intensity()
    assert intensity.shape == (168,)
    assert np.all(intensity > 0)


def test_hourly_mix_rejects_bad_length():
    spec = default_zone_catalog().get("EU-FR")
    with pytest.raises(ValueError):
        hourly_mix_profile(spec, n_hours=0)


def test_zones_without_solar_have_no_solar_share():
    spec = default_zone_catalog().get("EU-NO")  # hydro/wind only
    mix = hourly_mix_profile(spec, n_hours=48, seed=1)
    assert "solar" not in mix.shares or np.allclose(mix.shares["solar"], 0.0)


# --- Byte identity with the per-hour numpy references -----------------------
#
# The golden digests round floats to 10 significant digits, so they cannot
# prove that traces moved by no bit; these tests compare raw bytes.


def _numpy_scalar_wind(n_hours, volatility, rng):
    """Reference: the AR(1) recursion stepped through numpy scalars, hour by hour."""
    phi = 0.985
    noise = rng.normal(0.0, float(volatility) * np.sqrt(1 - phi**2), size=n_hours)
    x = np.empty(n_hours)
    x[0] = rng.normal(0.0, float(volatility))
    for t in range(1, n_hours):
        x[t] = phi * x[t - 1] + noise[t]
    return np.clip(0.55 + x, 0.1, 1.0)


@pytest.mark.parametrize("n_hours", [1, 2, 336, 8760])
@pytest.mark.parametrize("volatility", [0.0, 0.05, 0.35])
@pytest.mark.parametrize("stream", [(0, "EU-PL"), (1, "US-CA"), (7, "EU-NO")])
def test_wind_matches_numpy_scalar_loop_byte_for_byte(n_hours, volatility, stream):
    expected = _numpy_scalar_wind(n_hours, volatility, substream(stream[0], "mix", stream[1]))
    got = wind_capacity_factor(n_hours, volatility, substream(stream[0], "mix", stream[1]))
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("seasonality", [0.0, 0.5, 0.8])
def test_solar_matches_one_expression_byte_for_byte(seasonality):
    # A two-week window that wraps past hour 8760 into January.
    hours = (8600 + np.arange(336)) % 8760
    hod = (hours % 24).astype(float)
    doy = (hours // 24).astype(float)
    diurnal = np.clip(np.cos((hod - 13.0) / 7.0 * (np.pi / 2.0)), 0.0, None)
    seasonal = 1.0 - float(seasonality) * 0.5 * (1.0 - np.cos(2.0 * np.pi * (doy - 172.0) / 365.0))
    expected = diurnal * seasonal
    assert solar_capacity_factor(hours, seasonality).tobytes() == expected.tobytes()
    profiles = HourProfiles.build(336, start_hour=8600)
    assert np.array_equal(profiles.hours, hours)
    assert profiles.solar(seasonality).tobytes() == expected.tobytes()


def test_hour_profiles_match_the_public_factors_and_are_read_only():
    profiles = HourProfiles.build(500, start_hour=8500)
    hours = (8500 + np.arange(500)) % 8760
    assert profiles.demand.tobytes() == demand_profile(hours).tobytes()
    assert profiles.demand_mean == float(demand_profile(hours).mean())
    assert profiles.hydro.tobytes() == hydro_capacity_factor(hours).tobytes()
    for array in (profiles.hours, profiles.demand, profiles.hydro,
                  profiles.solar_diurnal, profiles.solar_season):
        with pytest.raises(ValueError):
            array[0] = 0.0


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("start_hour", [0, 4700])
def test_generate_set_equals_fresh_generator_per_zone(seed, start_hour, zone_catalog):
    """One generator's shared profiles leak nothing from one zone into the next."""
    specs = list(zone_catalog)
    assert len(specs) == 148
    shared = SyntheticTraceGenerator(seed=seed).generate_set(specs, start_hour=start_hour)
    for spec in specs:
        alone = SyntheticTraceGenerator(seed=seed).generate(spec, start_hour=start_hour)
        assert shared.get(spec.zone_id).values.tobytes() == alone.values.tobytes(), spec.zone_id


def test_generator_rebuilds_profiles_for_a_new_window(zone_catalog):
    spec = zone_catalog.get("US-CA")
    generator = SyntheticTraceGenerator(seed=1, n_hours=336)
    for start_hour in (0, 8600, 0):
        mix = generator.mix_profile(spec, start_hour=start_hour)
        alone = hourly_mix_profile(spec, n_hours=336, seed=1, start_hour=start_hour)
        assert mix.shares.keys() == alone.shares.keys()
        for source, share in alone.shares.items():
            assert mix.shares[source].tobytes() == share.tobytes()
    generator.n_hours = 48
    assert generator.generate(spec).values.shape == (48,)
