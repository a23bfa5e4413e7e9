"""Tests for the grid substrate: grid-sampled functions, the variation
helper and the tolerance policy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from difflab import GridFunction, ToleranceConfig
from difflab.gridfn import variation


def samples(fn, N=4096):
    return fn(np.linspace(0.0, 1.0, N + 1))


class TestGridFunction:
    def test_sample_count(self):
        g = GridFunction(np.zeros(257))
        assert g.N == 256
        assert len(g.samples) == g.N + 1

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            GridFunction(np.zeros(101))

    def test_non_finite_rejected(self):
        s = np.zeros(65)
        s[3] = np.nan
        with pytest.raises(ValueError):
            GridFunction(s)

    def test_piecewise_linear_between_nodes(self):
        g = GridFunction(np.array([0.0, 1.0, 0.0, 1.0, 0.0]))
        # midpoint of the first cell interpolates linearly
        assert g(0.125) == pytest.approx(0.5)


class TestTotalVariation:
    def test_monotone_is_range(self):
        assert variation(samples(lambda x: x ** 3, 1024)) == pytest.approx(
            1.0, abs=1e-12)

    def test_periodic_adds_the_seam(self):
        # the closed curve on the circle also jumps from 1 back to 0
        assert variation(samples(lambda x: x ** 3, 1024),
                         periodic=True) == pytest.approx(2.0, abs=1e-12)

    def test_constant_zero(self):
        assert variation(samples(lambda x: 2.0 * np.ones_like(x), 64)) == 0.0

    def test_sine_oracle(self):
        # two monotone branches up and down: var = 4 * amplitude
        v = samples(lambda x: np.sin(2 * np.pi * x))
        assert variation(v) == pytest.approx(4.0, abs=1e-4)

    def test_subinterval(self):
        # nodes 0..1024 of 4096 cover [0, 1/4], one monotone branch
        v = samples(lambda x: np.sin(2 * np.pi * x))
        assert variation(v[:1025]) == pytest.approx(1.0, abs=1e-4)


class TestToleranceConfig:
    def test_grid_floor(self):
        with pytest.raises(ValueError):
            ToleranceConfig(grid_N=32)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=2, max_size=6),
       st.integers(0, 256), st.integers(0, 256))
def test_variation_superadditive_on_split(coeffs, a, b):
    """var over [0,1] >= var over [a,b] for any polynomial samples."""
    a, b = min(a, b), max(a, b)
    v = samples(lambda x: sum(c * x ** i for i, c in enumerate(coeffs)), 256)
    assert variation(v) >= variation(v[a:b + 1]) - 1e-12
