"""Tests for the grid substrate: grid-sampled functions, the cubic table,
the variation helper and the tolerance policy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from difflab import GridFunction, ToleranceConfig
from difflab.gridfn import CubicTable, not_a_knot_slopes, variation

EPS = np.finfo(float).eps


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


@st.composite
def node_data(draw):
    """Increasing nodes, their gaps within a factor of 4 of one another,
    and one drawn value per node."""
    n = draw(st.integers(4, 40))
    unit = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    gaps = draw(st.lists(st.floats(1.0, 4.0), min_size=n - 1, max_size=n - 1))
    x = draw(st.floats(-10.0, 10.0)) + unit * np.cumsum([0.0] + gaps)
    values = st.floats(-1.0, 1.0, allow_subnormal=False)
    return x, np.array(draw(st.lists(values, min_size=n, max_size=n)))


def cell_probes(x, per_cell=5):
    """per_cell points on each cell [x_i, x_(i+1)], both ends included;
    row i holds cell i."""
    q = np.linspace(0.0, 1.0, per_cell)
    return x[:-1, None] + np.diff(x)[:, None] * q


def close(got, want, ulps):
    # within `ulps` roundoff units of the reference's own magnitude
    return np.max(np.abs(got - want)) <= ulps * EPS * np.max(np.abs(want))


class TestCubicTable:
    """The table with the not-a-knot slope rule against scipy's
    ``CubicSpline``, on drawn nodes; values and first derivatives."""

    @settings(max_examples=60, deadline=None)
    @given(node_data())
    def test_not_a_knot_matches_scipy(self, data):
        # scipy solves the same tridiagonal system by banded LU, which
        # pivots where a gap exceeds about twice its neighbor; the two
        # solutions then round differently (up to 11 units over 40,000
        # random draws, 0 with gaps within a factor of 2)
        x, y = data
        u = cell_probes(x)
        ref = CubicSpline(x, y)
        v, d = CubicTable(x, y, not_a_knot_slopes(x, y)).jet(u)
        assert close(v, ref(u), 32)
        assert close(d, ref(u, 1), 32)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 4), min_size=3, max_size=39),
           st.lists(st.integers(-3, 3), min_size=4, max_size=4))
    def test_not_a_knot_reproduces_a_cubic(self, gaps, coeffs):
        # integer nodes and coefficients and quarter-cell probes: the
        # cubic's values and derivatives there are exact in floats, so all
        # of the difference is the table's
        x = np.cumsum([0.0] + gaps)
        p = np.polynomial.Polynomial(coeffs)
        u = cell_probes(x)
        v, d = CubicTable(x, p(x), not_a_knot_slopes(x, p(x))).jet(u)
        assert close(v, p(u), 32)
        assert close(d, p.deriv()(u), 32)


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
