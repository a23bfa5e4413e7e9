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
    "integrate",
    "total_variation",
    "compose_monotone",
]


class DomainError(ValueError):
    """Evaluation or integration bounds outside the function's domain."""


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


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical policy shared by the whole library.

    grid_N   : default grid resolution (power of two, >= 64)
    abs_tol  : absolute comparison tolerance
    rel_tol  : relative comparison tolerance
    tail_tol : truncation threshold for infinite sums (series tails)
    max_iter : iteration budget for orbit computations / root finding
    """

    grid_N: int = 4096
    abs_tol: float = 1e-8
    rel_tol: float = 1e-8
    tail_tol: float = 1e-9
    max_iter: int = 65536

    def __post_init__(self):
        if self.grid_N < 64 or not _is_power_of_two(self.grid_N):
            raise ValueError("grid_N must be a power of two >= 64")
        for name in ("abs_tol", "rel_tol", "tail_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.max_iter <= 0:
            raise ValueError("max_iter must be positive")


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

    @classmethod
    def from_callable(cls, fn, N: int = DEFAULT_CONFIG.grid_N) -> "GridFunction":
        x = np.linspace(0.0, 1.0, N + 1)
        return cls(np.asarray(fn(x), dtype=float))

    def __call__(self, x):
        x = unit_points(x, 1e-15, "evaluation point outside [0, 1]")
        return np.interp(x, self.nodes, self.samples)

    def is_strictly_increasing(self) -> bool:
        return bool(np.all(np.diff(self.samples) > 0))

    # pointwise algebra (samples only; stays on the same grid)
    def map_samples(self, fn) -> "GridFunction":
        return GridFunction(fn(self.samples))


def integrate(f: GridFunction, a: float = 0.0, b: float = 1.0) -> float:
    """Integral of the piecewise-linear interpolant over [a, b].

    Trapezoid rule on the nodes, with partial end cells handled exactly
    (the interpolant is affine there). Exact for affine sample data.
    """
    if not (0.0 <= a <= b <= 1.0):
        raise DomainError("need 0 <= a <= b <= 1")
    if a == b:
        return 0.0
    N = f.N
    h = 1.0 / N
    ia = int(np.ceil(a * N - 1e-12))
    ib = int(np.floor(b * N + 1e-12))
    total = 0.0
    if ia > ib:
        # both endpoints inside one cell
        return 0.5 * (f(a) + f(b)) * (b - a)
    if a < ia * h:
        total += 0.5 * (f(a) + f.samples[ia]) * (ia * h - a)
    if ib * h < b:
        total += 0.5 * (f.samples[ib] + f(b)) * (b - ib * h)
    if ib > ia:
        total += float(np.trapezoid(f.samples[ia : ib + 1], dx=h))
    return total


def total_variation(f: GridFunction, a: float = 0.0, b: float = 1.0) -> float:
    """Total variation of the interpolant on [a, b]: sum of |sample jumps|."""
    if not (0.0 <= a <= b <= 1.0):
        raise DomainError("need 0 <= a <= b <= 1")
    if a == b:
        return 0.0
    N = f.N
    ia = int(np.ceil(a * N - 1e-12))
    ib = int(np.floor(b * N + 1e-12))
    vals = []
    if a < ia / N or ia > ib:
        vals.append(f(a))
    if ia <= ib:
        vals.extend(f.samples[ia : ib + 1])
    if b > ib / N or ia > ib:
        vals.append(f(b))
    v = np.asarray(vals)
    return float(np.abs(np.diff(v)).sum())


def compose_monotone(f: GridFunction, g: GridFunction) -> GridFunction:
    """Samples of f o g on g's grid. Both maps must be strictly increasing
    and g's range must lie inside [0, 1] (f's domain)."""
    if not g.is_strictly_increasing():
        raise MonotonicityError("inner map is not strictly increasing")
    if not f.is_strictly_increasing():
        raise MonotonicityError("outer map is not strictly increasing")
    lo, hi = g.samples[0], g.samples[-1]
    if lo < -1e-12 or hi > 1 + 1e-12:
        raise DomainError("inner map's range exceeds the outer map's domain")
    return GridFunction(f(np.clip(g.samples, 0.0, 1.0)))
