"""Grid-sampled functions on [0, 1]: the numeric substrate.

A GridFunction stores samples at uniform nodes x_i = i/N (N a power of two).
Evaluation between nodes is piecewise-linear -- a documented contract, chosen
so that total variation and quadrature of the *interpolant* are exactly
computable from the node values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "DomainError",
    "MonotonicityError",
    "ToleranceConfig",
    "GridFunction",
    "variation",
]


class DomainError(ValueError):
    """An evaluation point outside the function's domain."""


class MonotonicityError(ValueError):
    """A map that is required to be strictly increasing is not."""


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def unit_points(x, slack: float, message: str = "point outside [0, 1]"):
    """x as a float array on [0, 1], checked in one min/max pass.

    Points more than `slack` outside [0, 1] raise DomainError; NaN is
    ignored by the check, as every comparison with it is false.  A rounding
    excursion within `slack` is clipped; otherwise the input comes back
    uncopied, so callers must not write into the result."""
    x = np.asarray(x, dtype=float)
    lo = np.fmin.reduce(x, axis=None, initial=np.inf)
    hi = np.fmax.reduce(x, axis=None, initial=-np.inf)
    if lo < -slack or hi > 1.0 + slack:
        raise DomainError(message)
    if lo < 0.0 or hi > 1.0:
        return np.clip(x, 0.0, 1.0)
    return x


# absolute comparison tolerance
ABS_TOL = 1e-8
# truncation threshold for infinite sums (series tails)
TAIL_TOL = 1e-9
# iteration budget for orbit walks, series truncation and rotation numbers
MAX_ITER = 65536


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical policy shared by the whole library.

    grid_N : default grid resolution (power of two, >= 64)
    """

    grid_N: int = 4096

    def __post_init__(self):
        if self.grid_N < 64 or not _is_power_of_two(self.grid_N):
            raise ValueError("grid_N must be a power of two >= 64")


DEFAULT_CONFIG = ToleranceConfig()


@dataclass(frozen=True)
class GridFunction:
    """Samples at the N+1 uniform nodes of [0, 1]; linear in between."""

    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        if arr.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if not _is_power_of_two(arr.shape[0] - 1):
            raise ValueError("sample count must be N+1 with N a power of two")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must all be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    @property
    def N(self) -> int:
        return self.samples.shape[0] - 1

    @cached_property
    def nodes(self) -> np.ndarray:
        x = np.linspace(0.0, 1.0, self.N + 1)
        x.flags.writeable = False
        return x

    def __call__(self, x):
        x = unit_points(x, 1e-15, "evaluation point outside [0, 1]")
        return np.interp(x, self.nodes, self.samples)


def variation(values, periodic: bool = False) -> float:
    """Total variation of the piecewise-linear interpolant of a sample
    sequence: the sum of |jumps|.  periodic adds the seam jump from the
    last sample back to the first (a closed curve on the circle)."""
    v = np.asarray(values)
    var = float(np.abs(np.diff(v)).sum())
    if periodic:
        var += float(abs(v[-1] - v[0]))
    return var
