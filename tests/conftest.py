"""Helpers shared by the test modules."""

import pytest
from hypothesis import settings

from difflab import DEFAULT_CONFIG, IntervalDiffeo
from difflab.cli import _build_action

# every @given test draws the same examples on every run; a test's own
# @settings (examples, deadline) inherit this profile
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


class LeafCounter(IntervalDiffeo):
    """Wraps a map and counts the evaluations of its value and
    log-derivative kernels (_value, _log_deriv, _jet; deriv reaches
    _log_deriv) on it and on every inverse taken from it, in one shared
    tally, whether it is called at the root or as a factor; _affine_deriv
    passes through uncounted.  A second shared tally, points, adds up the
    points those evaluations were asked for."""

    def __init__(self, f, tally=None, point_tally=None):
        self.f = f
        self.tally = [0] if tally is None else tally
        self.point_tally = [0] if point_tally is None else point_tally

    @property
    def calls(self) -> int:
        return self.tally[0]

    @property
    def points(self) -> int:
        return self.point_tally[0]

    def _count(self, x):
        self.tally[0] += 1
        self.point_tally[0] += x.size

    def _value(self, x):
        self._count(x)
        return self.f._value(x)

    def _log_deriv(self, x):
        self._count(x)
        return self.f._log_deriv(x)

    def _jet(self, x):
        # one evaluation of the wrapped map, as for _value and _log_deriv
        self._count(x)
        return self.f._jet(x)

    def _affine_deriv(self, x):
        # uncounted: the cocycle values ride along with the counted jets
        return self.f._affine_deriv(x)

    def inverse_map(self):
        return LeafCounter(self.f.inverse_map(), self.tally, self.point_tally)


@pytest.fixture
def leaf_counter():
    """The LeafCounter class: wrap a map to count its leaf evaluations."""
    return LeafCounter


@pytest.fixture(scope="session")
def circle_pair():
    """The CLI's circle_pair preset: the one-generator circle action of
    f = h R_alpha h^-1, alpha the golden mean, h(x) = x + 0.2 sin(2 pi x)/(2 pi)."""
    return _build_action({"preset": "circle_pair"}, "action", DEFAULT_CONFIG)
