import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bchsim.grid import Field, Grid, derivative, l2_norm


def test_grid_geometry():
    g = Grid(8, half_length=2.0)
    assert g.x[0] == -2.0
    assert len(g.x) == 8
    assert g.dx == pytest.approx(0.5)
    assert g.x[-1] == pytest.approx(2.0 - g.dx)


def test_grid_rejects_bad_sizes():
    with pytest.raises(ValueError):
        Grid(100)
    with pytest.raises(ValueError):
        Grid(0)


def test_derivative_of_sine():
    g = Grid(128)
    k = 3.0 * np.pi
    f = Field(g, np.sin(k * g.x))
    df = derivative(f)
    assert np.allclose(df.values, k * np.cos(k * g.x), atol=1e-9)


def test_derivative_drops_the_top_mode():
    # the Nyquist mode cos(n pi x / 2L) of a real field has no real first derivative
    g = Grid(16)
    f = Field(g, np.cos(np.pi * g.n / 2 * g.x))
    assert np.allclose(derivative(f).values, 0.0, rtol=1e-12, atol=1e-9)


def test_grid_wavenumbers_are_the_real_transform_modes():
    g = Grid(16, half_length=2.0)
    assert g.k.shape == (9,)
    assert np.allclose(g.k, np.pi * np.arange(9) / 2.0, rtol=1e-15, atol=0)
    assert g.band == 4


def test_spectral_round_trip():
    g = Grid(64)
    f = _band_limited(g, 0)
    hat = g.spectral(f.values)
    assert hat.shape == (16,)
    assert np.allclose(g.physical(hat), f.values, atol=1e-12)


def test_physical_zero_pads_the_band():
    g = Grid(32)
    hat = np.zeros(g.band, dtype=complex)
    hat[3] = 2.0 - 1.0j
    expected = (2.0 * np.cos(3 * np.pi * (g.x + 1.0)) + np.sin(3 * np.pi * (g.x + 1.0))) * 2 / g.n
    assert np.allclose(g.physical(hat), expected, atol=1e-15)


def _band_limited(g: Grid, seed: int) -> Field:
    rng = np.random.default_rng(seed)
    return Field(g, g.physical(g.spectral(rng.standard_normal(g.n))))


@given(seed=st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_band_projection_is_idempotent(seed):
    g = Grid(64)
    once = g.spectral(np.random.default_rng(seed).standard_normal(64))
    twice = g.spectral(g.physical(once))
    assert np.allclose(twice, once, rtol=0, atol=1e-13 * np.abs(once).max())


@given(seed=st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_parseval(seed):
    g = Grid(32)
    f = Field(g, np.random.default_rng(seed).standard_normal(32))
    hat = np.fft.rfft(f.values)
    # modes 1..n/2-1 stand for themselves and their conjugates
    weights = np.full(hat.size, 2.0)
    weights[[0, -1]] = 1.0
    spectral_sum = 2.0 * g.half_length * np.sum(weights * np.abs(hat) ** 2) / g.n**2
    assert l2_norm(f) ** 2 == pytest.approx(spectral_sum, rel=1e-12)


def test_field_mean():
    g = Grid(16)
    f = Field(g, np.full(16, 2.5))
    assert f.mean() == pytest.approx(2.5)
