"""Orientation-preserving diffeomorphisms of [0,1] and of the circle.

Every map is a Diffeo with one protocol: value (f(x), or the lift F(x) for
circle maps), log_deriv, jet, inverse_value and reflect; one compose /
inverse / iterate serves both kinds.  Maps are kept as symbolic specs
(Moebius fractions, rotations, compositions, inverses, flow times, grid
tables, bump displacements) for as long as possible; grids appear only
at evaluation boundaries.  All evaluators are vectorized over numpy
arrays.

The metrics are the C^1 / C^{1+bv} / C^{1+ac} / C^2 distances

    d_1      = |f-g|_inf + |log Df - log Dg|_inf
    d_{1+bv} = |f-g|_inf + var(log Df - log Dg)
    d_{1+ac} = |f-g|_inf + |D(log Df - log Dg)|_{L1}
    d_2      = |f-g|_inf + |D(log Df - log Dg)|_inf

and the starred variants drop the |f-g|_inf term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np

from .gridfn import (
    ABS_TOL,
    DEFAULT_CONFIG,
    DomainError,
    GridFunction,
    MAX_ITER,
    MonotonicityError,
    ToleranceConfig,
    unit_points,
    variation,
)

__all__ = [
    "Diffeo",
    "IntervalDiffeo",
    "Moebius",
    "Composition",
    "InverseMap",
    "ChartMap",
    "GridMap",
    "Bump",
    "BumpDisplacement",
    "BumpPerturbation",
    "identity",
    "compose",
    "inverse",
    "iterate",
    "metric",
    "GridSample",
    "grid_sample",
    "sampled_distance",
    "CircleDiffeo",
    "Rotation",
    "CircleInverse",
    "RotationNumber",
    "rotation_number",
    "ActionTuple",
    "commutator_residual",
    "FixedPoint",
    "FixedPointReport",
    "fixed_point_analysis",
]


# ---------------------------------------------------------------------------
# solving helpers


def bisect_monotone(fn, target, lo, hi, iters: int = 80):
    """Vectorized bisection for increasing fn: returns y with fn(y)=target.

    lo/hi/target may be arrays (broadcast together).  The loop stops early
    once every midpoint rounds to an end of its bracket: later steps could
    not move it, so the result is that of all `iters` steps."""
    target = np.asarray(target, dtype=float)
    lo = np.broadcast_to(np.asarray(lo, dtype=float), target.shape).copy()
    hi = np.broadcast_to(np.asarray(hi, dtype=float), target.shape).copy()
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.all((mid == lo) | (mid == hi)):
            return mid
        below = fn(mid) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def _table_inverse(y, xs, ys, jet):
    """Inverse at y of an increasing map fn tabulated as ys = fn(xs), with
    jet(x) = (fn(x), Dfn(x)).

    The table read backwards gives the cell holding the root and a linear
    seed; three Newton steps on fn, each clipped to that cell, polish it."""
    i = np.clip(np.searchsorted(ys, y) - 1, 0, len(xs) - 2)
    lo, hi = xs[i], xs[i + 1]
    x = np.interp(y, ys, xs)
    for _ in range(3):
        v, dv = jet(x)
        x = np.clip(x - (v - y) / dv, lo, hi)
    return x


# rounds of refinement around the argmax in _refined_max, and probes per round
_REFINE_ROUNDS = 2
_REFINE_FAN = 33


def _refined_max(fn, xs, vals):
    """Sup of |fn| starting from grid samples `vals` at `xs`, with local
    refinement around the discrete argmax (grid values assumed = fn(xs))."""
    best = float(np.max(np.abs(vals)))
    i = int(np.argmax(np.abs(vals)))
    lo = xs[max(i - 1, 0)]
    hi = xs[min(i + 1, len(xs) - 1)]
    for _ in range(_REFINE_ROUNDS):
        probe = np.linspace(lo, hi, _REFINE_FAN)
        pv = np.abs(fn(probe))
        j = int(np.argmax(pv))
        best = max(best, float(pv[j]))
        lo = probe[max(j - 1, 0)]
        hi = probe[min(j + 1, _REFINE_FAN - 1)]
    return best


# ---------------------------------------------------------------------------
# the map protocol


class Diffeo:
    """Root of every map: an increasing diffeomorphism of [0,1] fixing the
    endpoints (kind "interval"), or a circle map given by its degree-one
    lift F, F(x+1) = F(x) + 1 (kind "circle").

    value(x) is f(x), resp. F(x), and log_deriv(x) is log Df(x), resp.
    log DF(x).  The kind decides only the domain check, the bracket of the
    generic bisection inverse and where a GridMap reads its log-derivative
    table; composites take it from their factors.

    The public point methods value, log_deriv, jet and affine_deriv are
    defined here only: each checks its points once (on [0, 1] for an
    interval map), hands them to a kernel as one 1-d array, and returns the
    result in the shape of x (a scalar for a scalar).  A map defines the
    kernels _value, _jet or _log_deriv (or both), and _affine_deriv, on such
    checked 1-d arrays, and calls the kernels of its factors, so a point is
    checked once however deep the expression."""

    kind = "interval"

    # -- public entries -----------------------------------------------------
    def _points(self, x):
        x = np.asarray(x, dtype=float)
        return unit_points(x, 1e-12) if self.kind == "interval" else x

    def value(self, x):
        x = self._points(x)
        return self._value(x.ravel()).reshape(x.shape)[()]

    def log_deriv(self, x):
        x = self._points(x)
        return self._log_deriv(x.ravel()).reshape(x.shape)[()]

    def jet(self, x):
        """(f(x), log Df(x)) together, equal bit for bit to value and
        log_deriv."""
        x = self._points(x)
        y, ld = self._jet(x.ravel())
        return y.reshape(x.shape)[()], ld.reshape(x.shape)[()]

    def affine_deriv(self, x):
        """D log Df = D^2 f / Df (the affine-derivative cocycle)."""
        x = self._points(x)
        return self._affine_deriv(x.ravel()).reshape(x.shape)[()]

    # -- kernels, on checked 1-d arrays -------------------------------------
    def _value(self, x):
        raise NotImplementedError

    def _log_deriv(self, x):
        return self._jet(x)[1]

    def _jet(self, x):
        # maps whose value and log-derivative share work override this
        return self._value(x), self._log_deriv(x)

    def _affine_deriv(self, x):
        raise NotImplementedError(
            f"{type(self).__name__} has no differentiable log-derivative"
        )

    def inverse_map(self) -> "Diffeo":
        return InverseMap(self)

    # -- closed forms: a map with a product or power law answers it, else
    # None, and compose / iterate build the general expression
    def _compose_fast(self, other) -> "Diffeo | None":
        return None

    def _iterate_fast(self, n: int) -> "Diffeo | None":
        """f^n for n >= 1 in closed form, or None."""
        return None

    def inverse_value(self, y):
        """f^{-1}(y) by bisection on _value, for a 1-d array y; maps with a
        table override this.  An interval map's root lies in [0, 1].  The
        displacement of a degree-one lift varies by less than 1 over the
        circle, so a circle map's root lies within 1 of y - F(0)."""
        if self.kind == "interval":
            return bisect_monotone(self._value, y, 0.0, 1.0)
        c = float(self._value(np.zeros(1))[0])
        return bisect_monotone(self._value, y, y - c - 2.0, y - c + 2.0)

    def reflect(self) -> "Diffeo":
        """r o f o r with r(x) = 1 - x: the same map seen from the other
        endpoint.  Maps with an exact reflection override this; the generic
        fallback, f in the chart u -> 1 - u, loses relative precision near
        the endpoints (1 - (1 - x) quantizes tiny x), and a circle map has
        none (ChartMap refuses it)."""
        return ChartMap(self, 1.0, 0.0)

    # -- conveniences -------------------------------------------------------
    def __call__(self, x):
        return self.value(x)

    def deriv(self, x):
        return np.exp(self.log_deriv(x))


# ---------------------------------------------------------------------------
# interval diffeomorphisms


class IntervalDiffeo(Diffeo):
    """Leaf base of interval maps: an increasing diffeomorphism of [0,1]
    fixing the endpoints."""


class Moebius(IntervalDiffeo):
    """x -> x / (a + (1-a) x); the one-parameter group h_a h_b = h_{ab}.

    The denominator is read as a (1 - x) + x, which is exactly 1 at x = 1
    where a + (1 - a) x cancels for large a."""

    def __init__(self, a: float):
        if a <= 0:
            raise ValueError("Moebius parameter must be positive")
        self.a = float(a)

    def _den(self, x):
        return self.a * (1.0 - x) + x

    def _value(self, x):
        return x / self._den(x)

    def _jet(self, x):
        den = self._den(x)
        return x / den, math.log(self.a) - 2.0 * np.log(den)

    def _affine_deriv(self, x):
        return -2.0 * (1.0 - self.a) / self._den(x)

    def inverse_map(self):
        return Moebius(1.0 / self.a)

    def _compose_fast(self, other):
        return Moebius(self.a * other.a) if isinstance(other, Moebius) else None

    def _iterate_fast(self, n: int):
        # none where a^n leaves the positive floats
        try:
            a = self.a**n
        except OverflowError:
            return None
        return Moebius(a) if a > 0.0 else None

    def reflect(self):
        # 1 - h_a(1 - x) = a x / (1 + (a-1) x) = h_{1/a}(x), exactly
        return Moebius(1.0 / self.a)

    def __repr__(self):
        return f"Moebius({self.a!r})"


def identity(kind: str = "interval") -> Diffeo:
    """The identity map of the given kind: the empty product, the unit
    that cancellation leaves of f o f^-1."""
    return Composition((), kind)


def _is_identity(f) -> bool:
    return isinstance(f, Composition) and not f.maps


class Composition(Diffeo):
    """Composition(maps) represents maps[0] o maps[1] o ... (outer first),
    all of one kind; kind names the kind of the empty product only."""

    def __init__(self, maps, kind: str = "interval"):
        maps = tuple(maps)
        kinds = {m.kind for m in maps}
        if len(kinds) > 1:
            raise ValueError("cannot compose interval and circle maps")
        self.kind = kinds.pop() if kinds else kind
        # nested products are flattened, so the empty one drops out
        flat = [f for m in maps for f in (m.maps if isinstance(m, Composition) else (m,))]
        # adjacent factors that cancel exactly go, so conjugacy chains like
        # phi f phi^-1 phi g phi^-1 collapse symbolically, keeping
        # commutator residuals at the level of the inner maps
        stack = []
        for m in flat:
            if stack and _same_map(stack[-1].inverse_map(), m):
                stack.pop()
            else:
                stack.append(m)
        self.maps = tuple(stack)

    # the empty product returns a copy of its points, as every leaf returns
    # a new array, so that a caller may write into a result
    def _value(self, x):
        for m in reversed(self.maps):
            x = m._value(x)
        return x if self.maps else x.copy()

    def _jet(self, x):
        acc = np.zeros_like(x)
        for m in reversed(self.maps):
            x, ld = m._jet(x)
            acc = acc + ld
        return x if self.maps else x.copy(), acc

    def _affine_deriv(self, x):
        # c(f o g) = c(g) + (c(f) o g) * Dg, accumulated inner-to-outer
        acc = np.zeros_like(x)
        chain = np.ones_like(x)
        for m in reversed(self.maps):
            acc = acc + m._affine_deriv(x) * chain
            x, ld = m._jet(x)
            chain = chain * np.exp(ld)
        return acc

    def inverse_map(self):
        return Composition([m.inverse_map() for m in reversed(self.maps)], self.kind)

    def reflect(self):
        return Composition([m.reflect() for m in self.maps], self.kind)

    def __repr__(self):
        return f"Composition({list(self.maps)!r})"


class InverseMap(Diffeo):
    """f^{-1}, evaluated by f.inverse_value: a table read backwards for
    grid-backed maps, else bisection on f."""

    def __init__(self, f: Diffeo):
        self.f = f
        self.kind = f.kind

    # perfbench/tracing.py times the public entry by name, as
    # InverseMap.value and as CircleInverse.lift
    value = lift = Diffeo.value

    def _value(self, x):
        return self.f.inverse_value(x)

    def inverse_value(self, y):
        # (f^-1)^-1 = f: evaluate f itself rather than bisect on f^-1
        return self.f._value(y)

    def _jet(self, x):
        y = self._value(x)
        return y, -self.f._log_deriv(y)

    def _affine_deriv(self, x):
        y = self._value(x)
        return -self.f._affine_deriv(y) / np.exp(self.f._log_deriv(y))

    def inverse_map(self):
        return self.f

    def reflect(self):
        return InverseMap(self.f.reflect())

    def __repr__(self):
        return f"InverseMap({self.f!r})"


CircleInverse = InverseMap  # read by perfbench/tracing.py


class ChartMap(IntervalDiffeo):
    """f read in the affine chart u -> a + (b - a) u, a != b in [0, 1]:
    the restriction of f to an invariant interval [a, b] rescaled to
    [0, 1] when a < b, and the reflection r o f o r, r(x) = 1 - x, when
    (a, b) = (1, 0).  In that chart the operations are exact: 1 + (-1) u
    is 1 - u and (1 - y) / 1 is 1 - y."""

    def __init__(self, f: Diffeo, a: float, b: float):
        if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0 and a != b):
            raise ValueError("need a != b in [0, 1]")
        if f.kind != "interval":
            raise ValueError("a chart map reads an interval map")
        self.f = f
        self.a = float(a)
        self.b = float(b)

    def _up(self, u):
        return self.a + (self.b - self.a) * u

    def _down(self, y):
        # over the positive chart length, so that y = a gives +0.0
        d = y - self.a if self.a < self.b else self.a - y
        return np.clip(d / abs(self.b - self.a), 0.0, 1.0)

    def _value(self, u):
        return self._down(self.f._value(self._up(u)))

    def _jet(self, u):
        y, ld = self.f._jet(self._up(u))
        return self._down(y), ld

    def _affine_deriv(self, u):
        return (self.b - self.a) * self.f._affine_deriv(self._up(u))

    def inverse_map(self):
        return ChartMap(self.f.inverse_map(), self.a, self.b)

    def inverse_value(self, y):
        return self._down(self.f.inverse_value(self._up(y)))

    def reflect(self):
        # the chart (1, 0) is r o f o r itself; any other chart reflects to
        # the mirrored chart of f's own reflection, exact where f's is
        if (self.a, self.b) == (1.0, 0.0):
            return self.f
        return ChartMap(self.f.reflect(), 1.0 - self.b, 1.0 - self.a)

    def __repr__(self):
        return f"ChartMap({self.f!r}, {self.a}, {self.b})"


# how far a circle table may miss F(1) = F(0) + 1 and logd(1) = logd(0)
_SEAM_TOL = 1e-6


class GridMap(Diffeo):
    """A map given by two tables on the N + 1 uniform nodes x_i = i/N, both
    read linearly between nodes: values holds f(x_i), for a circle map the
    lift F(x_i), and logd holds log Df(x_i).  The kind, "interval" or
    "circle", is set per map.

    An interval table runs from 0 to 1.  A circle table closes up to
    F(1) = F(0) + 1 and logd(1) = logd(0) within 1e-6, and F(1) is then set
    to F(0) + 1.  value(x) = k + table(x - k) with k = floor(x), and the
    inverse reads the value table backwards: exact for both kinds."""

    def __init__(self, values, logd, kind: str = "interval"):
        v, ld = GridFunction(values).samples, GridFunction(logd).samples
        if v.shape != ld.shape:
            raise ValueError("values and logd must share one grid")
        if kind == "interval":
            if v[0] != 0.0 or v[-1] != 1.0:
                raise ValueError("an interval table must run from 0 to 1")
        elif kind == "circle":
            if abs(v[-1] - v[0] - 1.0) > _SEAM_TOL:
                raise ValueError("lift seam mismatch: F(1) != F(0) + 1")
            if abs(ld[-1] - ld[0]) > _SEAM_TOL:
                raise ValueError("log-derivative seam mismatch")
            v = v.copy()
            v[-1] = v[0] + 1.0
            v.flags.writeable = False
        else:
            raise ValueError(f"unknown kind {kind!r}")
        if not np.all(np.diff(v) > 0):
            raise MonotonicityError("values are not strictly increasing")
        self.kind = kind
        self.values = v
        self.logd = ld
        self.nodes = np.linspace(0.0, 1.0, len(v))

    @classmethod
    def from_log_deriv(cls, psi, kind: str = "interval") -> "GridMap":
        """The map of the given kind fixing 0 whose log-derivative
        interpolates the samples psi (periodic for a circle map), shifted
        so that int_0^1 exp(log Df) = 1: node values from trapezoid prefix
        sums, with f(1) = 1 exactly."""
        g = GridFunction(psi)
        h = 1.0 / g.N
        z = float(np.trapezoid(np.exp(g.samples), dx=h))
        ld = g.samples - math.log(z)
        eg = np.exp(ld)
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (eg[1:] + eg[:-1]) * h)])
        cum /= cum[-1]  # force f(1) = 1 exactly
        cum[0] = 0.0
        if kind == "circle":
            ld[-1] = ld[0]
        return cls(cum, ld, kind)

    def _read(self, table, x):
        """A node table read linearly at x, reduced mod 1 on the circle."""
        if self.kind == "circle":
            x = np.mod(x, 1.0)
        return np.interp(x, self.nodes, table)

    def _value(self, x):
        k = np.floor(x)
        return k + np.interp(x - k, self.nodes, self.values)

    def inverse_value(self, y):
        # reduce by F(y + 1) = F(y) + 1 into [F(0), F(0) + 1], then read the
        # value table backwards
        y = np.asarray(y, dtype=float)
        k = np.floor(y - self.values[0])
        return k + np.interp(y - k, self.values, self.nodes)

    def _log_deriv(self, x):
        return self._read(self.logd, x)

    def _affine_deriv(self, x):
        # finite differencing of the stored log-derivative samples
        h = 1.0 / (len(self.nodes) - 1)
        d = np.gradient(self.logd, h)
        if self.kind == "circle":
            # a periodic table: the seam nodes 0 and N are one point, whose
            # neighbours are nodes N - 1 and 1
            d[0] = d[-1] = (self.logd[1] - self.logd[-2]) / (2.0 * h)
        return self._read(d, x)

    def __repr__(self):
        return f"GridMap(N={len(self.nodes) - 1}, kind={self.kind!r})"


# -- flat bump profiles exp(c - 1/((u - a)(b - u))) on (a, b) --------------


def _flat_bump(u, a, b, c, order=0):
    """C-infinity bump eta = exp(c - 1/p), p = (u - a)(b - u), on (a, b),
    flat-zero outside: the list [eta, eta', ..., eta^(order)], order <= 2,
    from one mask and one exponential."""
    u = np.asarray(u, dtype=float)
    out = [np.zeros_like(u) for _ in range(order + 1)]
    inside = (u > a) & (u < b)
    ui = u[inside]
    p = (ui - a) * (b - ui)
    e = np.exp(c - 1.0 / p)
    out[0][inside] = e
    if order >= 1:
        pp = a + b - 2.0 * ui
        sp = pp / p**2
        out[1][inside] = e * sp
        if order == 2:
            out[2][inside] = e * (sp**2 + (-2.0 * p - 2.0 * pp**2) / p**3)
    return out


# the displacement bump's profile: max 1 at u = 1/2 of its support (0, 1)
_ETA = (0.0, 1.0, 4.0)
_ETA_D1_MAX = float(np.max(np.abs(_flat_bump(np.linspace(0, 1, 20001), *_ETA, 1)[1])))


@dataclass(frozen=True)
class Bump:
    """A compactly supported displacement bump on [center-w/2, center+w/2].

    The induced log-derivative profile log(1 + amplitude * eta'(u)) is
    compactly supported exactly."""

    center: float
    width: float
    amplitude: float

    def __post_init__(self):
        if not (0.0 < self.center - self.width / 2 and self.center + self.width / 2 < 1.0):
            raise DomainError("bump support must sit inside (0, 1)")
        if abs(self.amplitude) * _ETA_D1_MAX >= 1.0:
            raise MonotonicityError("bump amplitude destroys monotonicity")

    @property
    def support(self):
        return (self.center - self.width / 2, self.center + self.width / 2)

    def _u(self, x):
        return (np.asarray(x, dtype=float) - (self.center - self.width / 2)) / self.width


class BumpDisplacement(IntervalDiffeo):
    """b = id + sum of displacement bumps with pairwise disjoint supports;
    b maps each support onto itself."""

    def __init__(self, bumps):
        self.bumps = tuple(bumps)
        sup = sorted(b.support for b in self.bumps)
        for (a1, b1), (a2, _) in zip(sup, sup[1:]):
            if b1 > a2:
                raise ValueError("bump supports must be pairwise disjoint")
        # b tabulated on each support, for b^{-1}
        self._tables = []
        for b in self.bumps:
            us = np.linspace(*b.support, 1025)
            self._tables.append((us, self._b(us)[0]))

    def _b(self, x, order=0):
        """[b, Db, D^2 b](x) up to the given order, one profile per bump, as
        fresh arrays.  A profile is evaluated only on its candidates, x in
        (lo, hi + width) for the support (lo, hi): u > 0 there exactly, and
        the interval covers every x that rounds to u < 1.  Every other point
        keeps x, 1 and 0, as if it had added the profile's exact zeros."""
        x = np.asarray(x, dtype=float)
        out = [x.copy(), np.ones_like(x), np.zeros_like(x)][:order + 1]
        for b in self.bumps:
            lo, hi = b.support
            near = (x > lo) & (x < hi + b.width)
            eta = _flat_bump(b._u(x[near]), *_ETA, order)
            out[0][near] += b.amplitude * b.width * eta[0]
            if order >= 1:
                out[1][near] += b.amplitude * eta[1]
            if order == 2:
                out[2][near] += b.amplitude * eta[2] / b.width
        return out

    def _value(self, x):
        return self._b(x)[0]

    def _jet(self, x):
        bx, db = self._b(x, 1)
        return bx, np.log(db)

    def _affine_deriv(self, x):
        _, db, d2b = self._b(x, 2)
        return d2b / db

    def inverse_value(self, y):
        x = np.array(y, dtype=float)
        for us, bs in self._tables:
            m = (x > us[0]) & (x < us[-1])
            if np.any(m):
                x[m] = _table_inverse(x[m], us, bs, lambda v: self._b(v, 1))
        return x

    def reflect(self):
        # the bump profile is symmetric under u -> 1-u, so each displacement
        # bump reflects to one at the mirrored center with negated amplitude
        return BumpDisplacement([Bump(1.0 - b.center, b.width, -b.amplitude)
                                 for b in self.bumps])

    def __repr__(self):
        return f"BumpDisplacement({list(self.bumps)!r})"


def BumpPerturbation(base: Diffeo, bumps) -> Diffeo:
    """base o b with b = id + sum of displacement bumps (disjoint supports):
    the product compose(base, BumpDisplacement(bumps)), whose jet, inverse
    and reflection are those of every composition."""
    return compose(base, BumpDisplacement(bumps))


# ---------------------------------------------------------------------------
# group operations (one algebra for interval and circle maps)


def compose(f, g):
    """f o g: the closed-form product where f has one for g, else the
    composition; f and g must be of one kind."""
    if f.kind != g.kind:
        raise ValueError("cannot compose interval and circle maps")
    if _is_identity(f):
        return g
    if _is_identity(g):
        return f
    out = f._compose_fast(g)
    return Composition([f, g]) if out is None else out


def inverse(f):
    return f.inverse_map()


def iterate(f, n: int):
    """f^n: the closed-form power where f has one, else the composition of
    n copies of f (evaluated by orbit accumulation)."""
    n = int(n)
    if n == 0:
        return identity(f.kind)
    if n < 0:
        return iterate(f.inverse_map(), -n)
    out = f._iterate_fast(n)
    if out is not None:
        return out
    return f if n == 1 else Composition([f] * n)


# ---------------------------------------------------------------------------
# word walks


_WORD_BUDGET = 10**6
_WALK_POINTS = 1 << 14


def _jet_step(g):
    """The step rule w -> g w on the usual word state (w(x), log Dw(x))."""

    def step(state):
        y, ld = state
        gy, ld_g = g._jet(y)
        return gy, ld + ld_g

    return step


def _walk_words(steps, n, state):
    """The states of the n^d words g_d^{k_d} o ... o g_1^{k_1} (g_1 applied
    first), 0 <= k_i < n, walked from the state of the empty word; steps[i]
    takes the state of a word w to that of g_i w.

    The row starts, the words in g_1..g_{d-1}, are walked depth first with
    k_1 outermost, n - 1 steps of g_i per row.  As many of them as fit in
    _WALK_POINTS points are stacked and take the n - 1 steps of g_d together;
    each word's state is yielded as a view of its row, k_d outermost in the
    batch.  Steps are elementwise, so no state depends on the batching.  A
    single row (d = 1: the orbit g^k, k = 0..n-1) walks the state itself.
    Circle orbits walk the lift.  The budget n^d <= 1e6 is checked here,
    before the first step."""
    if n ** len(steps) > _WORD_BUDGET:
        raise ValueError(f"word budget n^d <= {_WORD_BUDGET:.0e} exceeded")
    *outer, last = steps

    def starts(i, s):
        if i == len(outer):
            yield s
            return
        for k in range(n):
            yield from starts(i + 1, s)
            if k < n - 1:
                s = outer[i](s)

    def walk_batch(s, rows):
        for k in range(n):
            if rows == 1:
                yield s
            else:
                w = len(s[0]) // rows
                yield from (tuple(a[j * w:(j + 1) * w] for a in s) for j in range(rows))
            if k < n - 1:
                s = last(s)

    def walk():
        heads = starts(0, state)
        for first in heads:
            more = max(_WALK_POINTS // len(first[0]), 1) - 1 if outer and n > 1 else 0
            batch = [first, *islice(heads, more)]
            yield from walk_batch(tuple(map(np.concatenate, zip(*batch)))
                                  if len(batch) > 1 else first, len(batch))

    return walk()


# ---------------------------------------------------------------------------
# metrics


_METRIC_RS = ("1", "1+bv", "1+ac", "2")


@dataclass(frozen=True, eq=False)
class GridSample:
    """A map with its values and log-derivatives on the uniform metric grid
    x, from one ``jet`` call."""

    f: object
    x: np.ndarray
    value: np.ndarray
    log_deriv: np.ndarray


def grid_sample(f, cfg: ToleranceConfig = DEFAULT_CONFIG) -> GridSample:
    """f sampled once on the cfg.grid_N + 1 nodes of the metric grid."""
    x = np.linspace(0.0, 1.0, cfg.grid_N + 1)
    v, ld = f.jet(x)
    return GridSample(f, x, v, ld)


def sampled_distance(a: GridSample, b: GridSample, r="1",
                     starred: bool = False) -> float:
    """d_r(a.f, b.f), or d_r^* when starred, from two samples on one grid.

    The variation distances are read off the samples alone.  The sup norms
    start from the sampled differences and are refined around their grid
    argmax by evaluating both maps on a few dozen probes; d_2 reads the
    affine derivatives on the grid (finite differences of the sampled
    log-derivatives for maps that have none)."""
    r = str(r)
    if r not in _METRIC_RS:
        raise ValueError(f"unsupported metric selector {r!r}")
    f, g = a.f, b.f
    if f.kind != g.kind:
        raise ValueError("metric needs two maps of the same kind")
    x = a.x
    u = a.log_deriv - b.log_deriv
    if r == "1":
        dist = _refined_max(lambda t: f._log_deriv(t) - g._log_deriv(t), x, u)
    elif r in ("1+bv", "1+ac"):
        # var of the sampled difference = L1 norm of the interpolant's
        # derivative; identical formulas, different preconditions
        dist = variation(u)
    else:  # r == "2"
        try:
            dv = f.affine_deriv(x) - g.affine_deriv(x)
            aff_fn = lambda t: f._affine_deriv(t) - g._affine_deriv(t)
            dist = _refined_max(aff_fn, x, dv)
        except NotImplementedError:
            dv = np.gradient(u, 1.0 / (len(x) - 1))
            dist = float(np.max(np.abs(dv)))
    if not starred:
        value_fn = lambda t: f._value(t) - g._value(t)
        dist += _refined_max(value_fn, x, a.value - b.value)
    return float(dist)


def metric(f, g, r="1", starred: bool = False, cfg: ToleranceConfig = DEFAULT_CONFIG):
    """The C^r distance d_r(f, g), or d_r^* when starred, between two maps
    of the same kind (both interval or both circle maps).

    Each map is sampled once, values and log-derivatives together, on the
    grid of cfg.grid_N + 1 nodes (``grid_sample``), and the distance is
    read from the two samples (``sampled_distance``).  A caller that
    compares one map with several others samples it once itself."""
    return sampled_distance(grid_sample(f, cfg), grid_sample(g, cfg), r, starred)


# ---------------------------------------------------------------------------
# circle diffeomorphisms


class CircleDiffeo(Diffeo):
    """Leaf base of circle maps: value is the degree-one lift F."""

    kind = "circle"


class Rotation(CircleDiffeo):
    def __init__(self, alpha: float):
        self.alpha = float(alpha)

    def _value(self, x):
        return x + self.alpha

    def _log_deriv(self, x):
        return np.zeros_like(x)

    def _affine_deriv(self, x):
        return np.zeros_like(x)

    def inverse_map(self):
        return Rotation(-self.alpha)

    def _compose_fast(self, other):
        if isinstance(other, Rotation):
            return Rotation(self.alpha + other.alpha)
        return None

    def _iterate_fast(self, n: int):
        return Rotation(self.alpha * n)

    def __repr__(self):
        return f"Rotation({self.alpha!r})"


# ---------------------------------------------------------------------------
# rotation number


@dataclass(frozen=True)
class RotationNumber:
    value: float            # in [0, 1)
    uncertainty: float
    converged: bool
    iterations: int
    birkhoff_tail: float    # |rho_K - rho_{K/2}|, raw Birkhoff uncertainty


def _lift_orbit(lift_grid: np.ndarray, K: int) -> np.ndarray:
    """The orbit F^k(0), k = 0..K, of the lift sampled as F(i/M), i = 0..M
    (M a power of two), using F(y + m) = F(y) + m; it ends early with the
    first block of 1024 steps in which a step moves by less than 1e-14.

    Each step is ``m + np.interp(y - m, grid, lift_grid)`` bit for bit, done
    in Python floats because a scalar np.interp call costs more than the
    step: grid[i] = i / M exactly, so i = int(u * M) is the cell that
    np.interp's binary search finds, and the value is its own formula.  On a
    node (also u == 1.0, rounded up from below) the slope term is exactly 0,
    so np.interp's node branch needs no test; slope[M] is a pad."""
    M = len(lift_grid) - 1
    gy = lift_grid.tolist()
    slope = (np.diff(lift_grid) * M).tolist() + [0.0]  # cell width 1/M exactly
    orbit = np.zeros(K + 1)
    out = memoryview(orbit)  # stores a float as fast as a list does
    y = 0.0
    block = 1024  # steps between two stall checks
    for start in range(1, K + 1, block):
        for k in range(start, min(start + block, K + 1)):
            m = math.floor(y)
            u = y - m
            i = int(u * M)
            y = m + (slope[i] * (u - i / M) + gy[i])
            out[k] = y
        if np.any(np.abs(np.diff(orbit[start - 1:k + 1])) < 1e-14):
            return orbit[:k + 1]
    return orbit


def rotation_number(f: CircleDiffeo) -> RotationNumber:
    """Translation number of the lift, lim F^n(0)/n, reduced mod 1.

    Plain Birkhoff averages converge like 1/n; the estimate here uses the
    closest-return times of the orbit (the continued-fraction denominators),
    for which |F^q(0)/q - rho| shrinks like dist(F^q(0), Z)/q."""
    K = MAX_ITER
    # pre-sample the lift once so the long orbit iterates a table lookup
    # instead of re-running per-point bisections inside composed inverses;
    # lift(x + m) = lift(x) + m reduces every step to the fundamental domain
    grid = np.linspace(0.0, 1.0, (1 << 15) + 1)
    y = _lift_orbit(np.asarray(f.value(grid), dtype=float), K)
    stalled = np.flatnonzero(np.abs(np.diff(y)) < 1e-14)
    if stalled.size:
        # orbit of the lift converged: a fixed point, rotation number 0
        j = int(stalled[0]) + 1
        return RotationNumber(0.0, 1e-14, True, j,
                              float(abs(y[j] / j - y[j - 1] / max(j - 1, 1))))
    k = np.arange(1, K + 1)
    err = np.abs(y[1:] - np.round(y[1:])) / k
    best = int(np.argmin(err))  # the first minimum, as a strict < scan keeps
    birkhoff_tail = abs(y[K] / K - y[K // 2] / (K // 2))
    return RotationNumber(float(y[best + 1] / k[best]) % 1.0, float(err[best]),
                          bool(err[best] < 1e-4), K, float(birkhoff_tail))


# ---------------------------------------------------------------------------
# commuting tuples


@dataclass(frozen=True)
class ActionTuple:
    """d commuting diffeomorphisms, all interval or all circle."""

    generators: tuple

    def __post_init__(self):
        gens = tuple(self.generators)
        if len(gens) < 1:
            raise ValueError("need at least one generator")
        kinds = {g.kind for g in gens}
        if len(kinds) != 1:
            raise ValueError("generators must all be interval or all circle")
        object.__setattr__(self, "generators", gens)

    @property
    def kind(self):
        return self.generators[0].kind

    @property
    def d(self):
        return len(self.generators)

    @cached_property
    def rotation_numbers(self) -> tuple:
        """Each circle generator's RotationNumber, computed once per tuple."""
        return tuple(rotation_number(g) for g in self.generators)


def _same_part(p, q) -> bool:
    if isinstance(p, Diffeo):
        return _same_map(p, q)
    if isinstance(p, tuple):
        return (isinstance(q, tuple) and len(p) == len(q)
                and all(map(_same_part, p, q)))
    if isinstance(p, (bool, int, float, str)):
        return type(p) is type(q) and p == q
    return p is q


def _same_map(a, b) -> bool:
    """True when a and b are the same expression over the same leaf
    objects: one class, and attribute by attribute equal numbers, the same
    sub-maps (recursively) and otherwise the very same objects (fields,
    tables).  Such maps agree bit for bit at every point.  False means
    only that this could not be seen from the structure."""
    if a is b:
        return True
    if type(a) is not type(b):
        return False
    pa, pb = vars(a), vars(b)
    return pa.keys() == pb.keys() and all(_same_part(pa[k], pb[k]) for k in pa)


def _grid_backed(p) -> bool:
    """True when a grid table map (a GridMap) sits in the expression p: a
    map, or a tuple of parts, walked as _same_map walks them.  Other
    attributes, fields included, are not walked, so flow times and
    _SmoothConjugacy are not grid-backed."""
    if isinstance(p, tuple):
        return any(map(_grid_backed, p))
    if not isinstance(p, Diffeo):
        return False
    return isinstance(p, GridMap) or any(map(_grid_backed, vars(p).values()))


def commutator_residual(t: ActionTuple, cfg: ToleranceConfig = DEFAULT_CONFIG) -> float:
    """max over pairs of d_1(f_i o f_j, f_j o f_i).

    ``compose`` reduces many commuting pairs to one expression in both
    orders (flow times of one field add, powers of one map add, chart-wise
    maps compose chart by chart); such a pair has residual exactly 0.0 and
    costs no evaluation.  Every other pair is measured by ``metric``."""
    gens = t.generators
    worst = 0.0
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            a = compose(gens[i], gens[j])
            b = compose(gens[j], gens[i])
            if not _same_map(a, b):
                worst = max(worst, metric(a, b, "1", cfg=cfg))
    return worst


# ---------------------------------------------------------------------------
# fixed point analysis


@dataclass(frozen=True)
class FixedPoint:
    location: float
    multipliers: tuple      # log Df_i(p) per generator
    classification: str     # hyperbolic | parabolic | 2-parabolic | unresolved


@dataclass(frozen=True)
class FixedPointReport:
    points: tuple                  # FixedPoint at isolated common fixed points
    global_fixed_intervals: tuple  # (a, b) intervals fixed by all generators
    parabolic_set: tuple           # locations (or intervals) where all parabolic
    components: tuple              # components of [0,1] minus the fixed set


def _classify(t: ActionTuple, p: float, thr: float) -> FixedPoint:
    mults = tuple(float(g.log_deriv(p)) for g in t.generators)
    # ambiguity band around the threshold; capped at thr/4 so clear cases
    # (e.g. an exactly parabolic multiplier) never fall inside it
    band = 3.0 * min(ABS_TOL, thr / 4.0)
    unresolved = any(abs(abs(m) - thr) <= band for m in mults)
    if any(abs(m) > thr for m in mults):
        cls = "hyperbolic"
    else:
        cls = "parabolic"
        try:
            affs = [float(g.affine_deriv(p)) for g in t.generators]
            if all(abs(a) <= thr for a in affs):
                cls = "2-parabolic"
        except NotImplementedError:
            pass
    if unresolved:
        cls = "unresolved"
    return FixedPoint(p, mults, cls)


def fixed_point_analysis(t: ActionTuple, cfg: ToleranceConfig = DEFAULT_CONFIG) -> FixedPointReport:
    """Common fixed set of the tuple, classified by multipliers.

    Each sign change of f_i - id on the grid brackets a root, and all of a
    generator's brackets are solved together by ``bisect_monotone``.  The
    hyperbolic/parabolic threshold on |log Df(p)| is 1e-8 for analytic
    representations and 1e-4 for grid-backed ones (the dichotomy is exact in
    exact arithmetic; numerics needs a policy)."""
    if t.kind != "interval":
        raise ValueError("fixed point analysis applies to interval actions")
    grid_backed = any(map(_grid_backed, t.generators))
    thr = 1e-4 if grid_backed else 1e-8
    loc_tol = 1e-4 if grid_backed else 1e-10

    N = cfg.grid_N
    x = np.linspace(0.0, 1.0, N + 1)
    disps = [g.value(x) - x for g in t.generators]
    total = np.max(np.abs(np.array(disps)), axis=0)

    # maximal runs of nodes where every generator is (numerically) identity;
    # a run of one node is an isolated common fixed point, not an interval
    flat = total < loc_tol
    edges = np.diff(np.concatenate([[0], flat.astype(int), [0]]))
    starts, ends = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1) - 1
    intervals = [(x[i], x[j]) for i, j in zip(starts, ends) if j > i]
    candidates = {0.0, 1.0}
    candidates.update(x[starts[starts == ends]].tolist())

    def in_flat(p):
        return any(a - 1e-12 <= p <= b + 1e-12 for a, b in intervals)

    # isolated candidates: bisected sign changes of each f_i - id, each
    # bracket made an increasing crossing by the sign at its right end, and
    # the nodes where f_i - id touches 0 outside the flat runs
    for g, disp in zip(t.generators, disps):
        sign = np.sign(disp)
        cells = np.flatnonzero(sign[:-1] * sign[1:] < 0)
        s = sign[cells + 1]
        roots = bisect_monotone(lambda p: s * (g._value(p) - p), np.zeros(cells.size),
                                x[cells], x[cells + 1])
        touch = np.flatnonzero((sign[:-1] != 0) & (sign[1:] == 0) & ~flat[1:]) + 1
        candidates.update(roots.tolist())
        candidates.update(x[touch].tolist())

    points = []
    for p in sorted(candidates):
        if in_flat(p):
            continue
        if max(abs(float(g.value(p)) - p) for g in t.generators) > 10 * loc_tol:
            continue
        if points and abs(p - points[-1].location) < 2.0 / N:
            continue
        points.append(_classify(t, p, thr))

    parabolic = tuple(
        [fp.location for fp in points if fp.classification in ("parabolic", "2-parabolic")]
        + list(intervals)
    )

    # components of the complement of the whole common fixed set
    cuts = sorted({0.0, 1.0} | {fp.location for fp in points}
                  | {e for ab in intervals for e in ab})
    components = []
    covered = intervals
    for a, b in zip(cuts, cuts[1:]):
        mid = 0.5 * (a + b)
        if b - a > 1e-12 and not any(lo - 1e-12 <= mid <= hi + 1e-12 for lo, hi in covered):
            components.append((a, b))

    return FixedPointReport(tuple(points), tuple(intervals), parabolic, tuple(components))
