"""Grid-sampled functions on [0, 1]: the numeric substrate.

A GridFunction stores samples at uniform nodes x_i = i/N (N a power of two).
Evaluation between nodes is piecewise-linear -- a documented contract, chosen
so that total variation and quadrature of the *interpolant* are exactly
computable from the node values.

Where a table must be smooth, because finite differences of what is read
from it would otherwise see the kinks of a piecewise-linear one, a
CubicTable holds a C^1 piecewise cubic in Hermite form instead, with exact
node slopes where they are known, else ``not_a_knot_slopes``; the one
quadrature rule, ``gauss_legendre``, integrates per cell (g(p) for a cell's
cubic p in ``CubicTable.integral``).
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
    "CubicTable",
    "not_a_knot_slopes",
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


# the 7-point Gauss-Legendre rule on [0, 1] (written out: importing
# numpy.polynomial costs 8 ms).  Where log Dphi of a bumped Moebius map moves
# by 1 within a cell, 5 points missed the cell's integral of exp by 4e-11, 6
# by 8e-13 and 7 by 5e-15
_GL_T = (0.025446043828620736, 0.12923440720030277, 0.2970774243113014, 0.5,
         0.7029225756886985, 0.8707655927996972, 0.9745539561713793)
_GL_W = (0.06474248308443485, 0.13985269574463832, 0.19091502525255946, 0.2089795918367347,
         0.19091502525255946, 0.13985269574463832, 0.06474248308443485)


def gauss_legendre(g, s):
    """int_0^s g for each cell width s by the 7-point rule, calling g on one
    row of nodes at a time and summing node by node, so that a cell reads
    the same bits in any batch (a matrix product would not)."""
    return s * sum(w * g(t * s) for t, w in zip(_GL_T, _GL_W))


class CubicTable:
    """The piecewise cubic on increasing nodes x that takes the value y_i
    and the slope d_i at each node x_i (cubic Hermite form), stored as the
    power-form coefficients of each cell [x_i, x_(i+1)] in s = u - x_i,
    highest power first: ``coef[3]`` holds the constants y_i.

    A point u is read on the cell x_i <= u < x_(i+1), the last node on the
    last cell; points outside the nodes extend the end cells' cubics.  Both
    the value and the first derivative are summed in rising powers of s,
    not by Horner's rule: in this order a table reads, bit for bit, what
    the reference piecewise-polynomial evaluator reads from the same
    coefficients."""

    def __init__(self, x, y, d):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        d = np.asarray(d, dtype=float)
        dx = np.diff(x)
        m = np.diff(y) / dx
        t = (d[:-1] + d[1:] - 2.0 * m) / dx
        self.x = x
        self.coef = np.stack((t / dx, (m - d[:-1]) / dx - t, d[:-1], y[:-1]))

    def cell(self, u):
        """The cell index i of each point u, the coefficients of its cell
        and its offset s = u - x_i."""
        u = np.asarray(u, dtype=float)
        i = np.clip(np.searchsorted(self.x, u, side="right") - 1,
                    0, self.x.size - 2)
        return i, np.take(self.coef, i, axis=1), u - np.take(self.x, i)

    @staticmethod
    def cubic(c, s):
        """The cubic with cell coefficients c at offsets s (broadcast)."""
        s2 = s * s
        return c[3] + c[2] * s + c[1] * s2 + c[0] * (s2 * s)

    def __call__(self, u):
        _, c, s = self.cell(u)
        return self.cubic(c, s)

    def jet(self, u):
        """(value, first derivative) at u, from one cell lookup."""
        _, c, s = self.cell(u)
        return self.cubic(c, s), c[2] + c[1] * s * 2 + c[0] * (s * s) * 3

    @staticmethod
    def integral(g, c, s):
        """int_0^s g(p) for the cubic p with cell coefficients c and a ufunc g."""
        return gauss_legendre(lambda u: g(CubicTable.cubic(c, u)), s)


def not_a_knot_slopes(x, y) -> np.ndarray:
    """Node slopes of the C^2 cubic spline through (x, y) whose third
    derivative is also continuous at the second and the next-to-last node
    (the not-a-knot end condition).  The tridiagonal system for them is
    solved by one Thomas sweep on Python floats.  Needs at least four
    nodes."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    h = np.diff(x)
    m = np.diff(y) / h
    # row i: lo[i] d[i-1] + di[i] d[i] + up[i] d[i+1] = r[i]
    lo = np.empty_like(x)
    di = np.empty_like(x)
    up = np.empty_like(x)
    r = np.empty_like(x)
    lo[1:-1] = h[1:]
    di[1:-1] = 2.0 * (h[:-1] + h[1:])
    up[1:-1] = h[:-1]
    r[1:-1] = 3.0 * (h[1:] * m[:-1] + h[:-1] * m[1:])
    w = x[2] - x[0]
    di[0], up[0] = h[1], w
    r[0] = ((h[0] + 2.0 * w) * h[1] * m[0] + h[0] ** 2 * m[1]) / w
    w = x[-1] - x[-3]
    lo[-1], di[-1] = w, h[-2]
    r[-1] = (h[-1] ** 2 * m[-2] + (2.0 * w + h[-1]) * h[-2] * m[-1]) / w
    lo, di, up, r = lo.tolist(), di.tolist(), up.tolist(), r.tolist()
    n = len(r)
    for i in range(1, n):
        q = lo[i] / di[i - 1]
        di[i] -= q * up[i - 1]
        r[i] -= q * r[i - 1]
    r[-1] /= di[-1]
    for i in range(n - 2, -1, -1):
        r[i] = (r[i] - up[i] * r[i + 1]) / di[i]
    return np.array(r)
