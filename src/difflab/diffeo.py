"""Orientation-preserving diffeomorphisms of [0,1] and of the circle.

Interval maps are kept as symbolic specs (Moebius fractions, compositions,
inverses, flow times, grid log-derivatives, bump perturbations) for as long
as possible; grids appear only at evaluation boundaries.  All evaluators are
vectorized over numpy arrays.

The metrics are the C^1 / C^{1+bv} / C^{1+ac} / C^2 distances

    d_1      = |f-g|_inf + |log Df - log Dg|_inf
    d_{1+bv} = |f-g|_inf + var(log Df - log Dg)
    d_{1+ac} = |f-g|_inf + |D(log Df - log Dg)|_{L1}
    d_2      = |f-g|_inf + |D(log Df - log Dg)|_inf

and the starred variants drop the |f-g|_inf term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .gridfn import (
    DEFAULT_CONFIG,
    DomainError,
    GridFunction,
    MonotonicityError,
    ToleranceConfig,
    total_variation,
    unit_points,
)

__all__ = [
    "IntervalDiffeo",
    "Moebius",
    "Composition",
    "InverseMap",
    "Iterate",
    "GridLogDeriv",
    "Bump",
    "BumpPerturbation",
    "identity",
    "compose",
    "inverse",
    "iterate",
    "evaluate",
    "metric",
    "CircleDiffeo",
    "Rotation",
    "CircleGrid",
    "CircleComposition",
    "CircleInverse",
    "circle_compose",
    "circle_inverse",
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


def _table_inverse(y, xs, ys, fn, dfn):
    """Inverse at y of an increasing map tabulated as ys = fn(xs).

    The table read backwards gives the cell holding the root and a linear
    seed; three Newton steps on fn, each clipped to that cell, polish it."""
    i = np.clip(np.searchsorted(ys, y) - 1, 0, len(xs) - 2)
    lo, hi = xs[i], xs[i + 1]
    x = np.interp(y, ys, xs)
    for _ in range(3):
        x = np.clip(x - (fn(x) - y) / dfn(x), lo, hi)
    return x


def _refined_max(fn, xs, vals, rounds: int = 2, fan: int = 33):
    """Sup of |fn| starting from grid samples `vals` at `xs`, with local
    refinement around the discrete argmax (grid values assumed = fn(xs))."""
    best = float(np.max(np.abs(vals)))
    i = int(np.argmax(np.abs(vals)))
    lo = xs[max(i - 1, 0)]
    hi = xs[min(i + 1, len(xs) - 1)]
    for _ in range(rounds):
        probe = np.linspace(lo, hi, fan)
        pv = np.abs(fn(probe))
        j = int(np.argmax(pv))
        best = max(best, float(pv[j]))
        lo2 = probe[max(j - 1, 0)]
        hi2 = probe[min(j + 1, fan - 1)]
        lo, hi = lo2, hi2
    return best


# ---------------------------------------------------------------------------
# interval diffeomorphisms


class IntervalDiffeo:
    """Base class: increasing diffeomorphism of [0,1] fixing the endpoints."""

    kind = "interval"
    is_grid_backed = False

    # -- required interface -------------------------------------------------
    def value(self, x):
        raise NotImplementedError

    def log_deriv(self, x):
        raise NotImplementedError

    def affine_deriv(self, x):
        """D log Df = D^2 f / Df (the affine-derivative cocycle)."""
        raise NotImplementedError(
            f"{type(self).__name__} has no differentiable log-derivative"
        )

    def inverse_map(self) -> "IntervalDiffeo":
        return InverseMap(self)

    def inverse_value(self, y):
        """f^{-1}(y) for y in [0, 1] by bisection on f; maps with a table
        override this."""
        return bisect_monotone(self.value, y, 0.0, 1.0)

    def reflect(self) -> "IntervalDiffeo":
        """r o f o r with r(x) = 1 - x: the same map seen from the other
        endpoint.  Subclasses with closed-form reflections override this;
        the generic fallback loses relative precision near the endpoints
        (1 - (1 - x) quantizes tiny x), so structured maps should prefer
        exact reflection."""
        return ReflectedMap(self)

    # -- conveniences -------------------------------------------------------
    def __call__(self, x):
        return self.value(x)

    def deriv(self, x):
        return np.exp(self.log_deriv(x))

    def _check_domain(self, x):
        return unit_points(x, 1e-12)


class Moebius(IntervalDiffeo):
    """x -> x / (a + (1-a) x); the one-parameter group h_a h_b = h_{ab}."""

    def __init__(self, a: float):
        if a <= 0:
            raise ValueError("Moebius parameter must be positive")
        self.a = float(a)

    def value(self, x):
        x = self._check_domain(x)
        return x / (self.a + (1.0 - self.a) * x)

    def log_deriv(self, x):
        x = self._check_domain(x)
        return math.log(self.a) - 2.0 * np.log(self.a + (1.0 - self.a) * x)

    def affine_deriv(self, x):
        x = self._check_domain(x)
        return -2.0 * (1.0 - self.a) / (self.a + (1.0 - self.a) * x)

    def inverse_map(self):
        return Moebius(1.0 / self.a)

    def reflect(self):
        # 1 - h_a(1 - x) = a x / (1 + (a-1) x) = h_{1/a}(x), exactly
        return Moebius(1.0 / self.a)

    def __repr__(self):
        return f"Moebius({self.a!r})"


def identity() -> Moebius:
    return Moebius(1.0)


def _is_identity(f) -> bool:
    return isinstance(f, Moebius) and f.a == 1.0


def _inverse_pair(a, b) -> bool:
    """Adjacent factors that cancel exactly (so conjugacy chains like
    phi f phi^-1 phi g phi^-1 collapse symbolically, keeping commutator
    residuals at the level of the inner maps)."""
    if isinstance(a, InverseMap) and a.f is b:
        return True
    if isinstance(b, InverseMap) and b.f is a:
        return True
    if isinstance(a, Moebius) and isinstance(b, Moebius) and a.a * b.a == 1.0:
        return True
    ka = getattr(a, "_flow_key", None)
    kb = getattr(b, "_flow_key", None)
    if ka is not None and kb is not None and ka[0] == kb[0] and ka[1] == -kb[1]:
        return True
    return False


class Composition(IntervalDiffeo):
    """Composition(maps) represents maps[0] o maps[1] o ... (outer first)."""

    def __init__(self, maps):
        flat = []
        for m in maps:
            if isinstance(m, Composition):
                flat.extend(m.maps)
            elif not _is_identity(m):
                flat.append(m)
        stack = []
        for m in flat:
            if stack and _inverse_pair(stack[-1], m):
                stack.pop()
            else:
                stack.append(m)
        self.maps = tuple(stack)
        self.is_grid_backed = any(m.is_grid_backed for m in self.maps)

    def value(self, x):
        y = self._check_domain(x)
        for m in reversed(self.maps):
            y = m.value(y)
        return y

    def log_deriv(self, x):
        y = self._check_domain(x)
        acc = np.zeros_like(y)
        for m in reversed(self.maps):
            acc = acc + m.log_deriv(y)
            y = m.value(y)
        return acc

    def affine_deriv(self, x):
        # c(f o g) = c(g) + (c(f) o g) * Dg, accumulated inner-to-outer
        y = self._check_domain(x)
        acc = np.zeros_like(y)
        chain = np.ones_like(y)
        for m in reversed(self.maps):
            acc = acc + m.affine_deriv(y) * chain
            chain = chain * m.deriv(y)
            y = m.value(y)
        return acc

    def inverse_map(self):
        return Composition([m.inverse_map() for m in reversed(self.maps)])

    def reflect(self):
        return Composition([m.reflect() for m in self.maps])

    def __repr__(self):
        return f"Composition({list(self.maps)!r})"


class InverseMap(IntervalDiffeo):
    """f^{-1}, evaluated by f.inverse_value: a table read backwards for
    grid-backed maps, else bisection on f."""

    def __init__(self, f: IntervalDiffeo):
        self.f = f
        self.is_grid_backed = f.is_grid_backed

    def value(self, x):
        return self.f.inverse_value(self._check_domain(x))

    def log_deriv(self, x):
        y = self.value(x)
        return -self.f.log_deriv(y)

    def affine_deriv(self, x):
        y = self.value(x)
        return -self.f.affine_deriv(y) / self.f.deriv(y)

    def inverse_map(self):
        return self.f

    def reflect(self):
        return InverseMap(self.f.reflect())

    def __repr__(self):
        return f"InverseMap({self.f!r})"


class ReflectedMap(IntervalDiffeo):
    """Generic r o f o r with r(x) = 1 - x (fallback for maps without a
    closed-form reflection)."""

    def __init__(self, f: IntervalDiffeo):
        self.f = f
        self.is_grid_backed = f.is_grid_backed

    def value(self, x):
        x = self._check_domain(x)
        return 1.0 - self.f.value(1.0 - x)

    def log_deriv(self, x):
        x = self._check_domain(x)
        return self.f.log_deriv(1.0 - x)

    def affine_deriv(self, x):
        x = self._check_domain(x)
        return -self.f.affine_deriv(1.0 - x)

    def inverse_map(self):
        return ReflectedMap(self.f.inverse_map())

    def inverse_value(self, y):
        return 1.0 - self.f.inverse_value(1.0 - y)

    def reflect(self):
        return self.f

    def __repr__(self):
        return f"ReflectedMap({self.f!r})"


class Iterate(IntervalDiffeo):
    """f^n for n >= 1, evaluated by orbit accumulation (numerically stable
    near hyperbolic fixed points, unlike naive nested grids)."""

    def __init__(self, f: IntervalDiffeo, n: int):
        if n < 1:
            raise ValueError("Iterate needs n >= 1")
        self.f = f
        self.n = int(n)
        self.is_grid_backed = f.is_grid_backed

    def value(self, x):
        y = self._check_domain(x)
        for _ in range(self.n):
            y = self.f.value(y)
        return y

    def log_deriv(self, x):
        y = self._check_domain(x)
        acc = np.zeros_like(y)
        for _ in range(self.n):
            acc = acc + self.f.log_deriv(y)
            y = self.f.value(y)
        return acc

    def affine_deriv(self, x):
        y = self._check_domain(x)
        acc = np.zeros_like(y)
        chain = np.ones_like(y)
        for _ in range(self.n):
            acc = acc + self.f.affine_deriv(y) * chain
            chain = chain * self.f.deriv(y)
            y = self.f.value(y)
        return acc

    def inverse_map(self):
        return Iterate(self.f.inverse_map(), self.n)

    def reflect(self):
        return Iterate(self.f.reflect(), self.n)

    def __repr__(self):
        return f"Iterate({self.f!r}, {self.n})"


class GridLogDeriv(IntervalDiffeo):
    """Map reconstructed from log-derivative samples g:

        f(x) = int_0^x exp(g) du / int_0^1 exp(g) du

    The normalization constant is folded into the stored samples so that
    int_0^1 exp(g) = 1; node values of f come from trapezoid prefix sums and
    evaluation between nodes is linear (same contract as GridFunction)."""

    is_grid_backed = True

    def __init__(self, g: GridFunction):
        h = 1.0 / g.N
        z = float(np.trapezoid(np.exp(g.samples), dx=h))
        self.g = GridFunction(g.samples - math.log(z))
        eg = np.exp(self.g.samples)
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (eg[1:] + eg[:-1]) * h)])
        cum /= cum[-1]  # force f(1) = 1 exactly
        cum[0] = 0.0
        self._values = GridFunction(cum)

    @classmethod
    def from_log_deriv_callable(cls, fn, N: int = DEFAULT_CONFIG.grid_N):
        return cls(GridFunction.from_callable(fn, N))

    def value(self, x):
        x = self._check_domain(x)
        return self._values(x)

    def inverse_value(self, y):
        # exact: the piecewise-linear value table read backwards
        return np.interp(y, self._values.samples, self._values.nodes)

    def log_deriv(self, x):
        x = self._check_domain(x)
        return self.g(x)

    def affine_deriv(self, x):
        # finite differencing of the stored log-derivative samples
        x = self._check_domain(x)
        h = 1.0 / self.g.N
        d = np.gradient(self.g.samples, h)
        return np.interp(x, self.g.nodes, d)

    def __repr__(self):
        return f"GridLogDeriv(N={self.g.N})"


# -- smooth bump profile used by BumpPerturbation ---------------------------


def _bump_eta(u):
    """C-infinity bump on (0,1), max value 1 at u=1/2, flat-zero outside."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = (u > 0.0) & (u < 1.0)
    ui = u[inside]
    out[inside] = np.exp(4.0 - 1.0 / (ui * (1.0 - ui)))
    return out


def _bump_eta_d1(u):
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = (u > 0.0) & (u < 1.0)
    ui = u[inside]
    p = ui * (1.0 - ui)
    sp = (1.0 - 2.0 * ui) / p**2
    out[inside] = np.exp(4.0 - 1.0 / p) * sp
    return out


def _bump_eta_d2(u):
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = (u > 0.0) & (u < 1.0)
    ui = u[inside]
    p = ui * (1.0 - ui)
    pp = 1.0 - 2.0 * ui
    sp = pp / p**2
    spp = (-2.0 * p - 2.0 * pp**2) / p**3
    out[inside] = np.exp(4.0 - 1.0 / p) * (sp**2 + spp)
    return out


_ETA_D1_MAX = float(np.max(np.abs(_bump_eta_d1(np.linspace(0, 1, 20001)))))


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


class BumpPerturbation(IntervalDiffeo):
    """base o b where b = id + sum of displacement bumps (disjoint supports)."""

    def __init__(self, base: IntervalDiffeo, bumps):
        self.base = base
        self.bumps = tuple(bumps)
        self.is_grid_backed = base.is_grid_backed
        sup = sorted(b.support for b in self.bumps)
        for (a1, b1), (a2, _) in zip(sup, sup[1:]):
            if b1 > a2:
                raise ValueError("bump supports must be pairwise disjoint")
        # b maps each support onto itself: tabulate it there for b^{-1}
        self._tables = []
        for b in self.bumps:
            us = np.linspace(*b.support, 1025)
            self._tables.append((us, self._b(us)))

    def _b(self, x):
        y = np.asarray(x, dtype=float)
        for b in self.bumps:
            y = y + b.amplitude * b.width * _bump_eta(b._u(x))
        return y

    def _b_inv(self, z):
        x = np.array(z, dtype=float)
        for us, bs in self._tables:
            m = (x > us[0]) & (x < us[-1])
            if np.any(m):
                x[m] = _table_inverse(x[m], us, bs, self._b, self._db)
        return x

    def _db(self, x):
        d = np.ones_like(np.asarray(x, dtype=float))
        for b in self.bumps:
            d = d + b.amplitude * _bump_eta_d1(b._u(x))
        return d

    def _d2b(self, x):
        d = np.zeros_like(np.asarray(x, dtype=float))
        for b in self.bumps:
            d = d + b.amplitude * _bump_eta_d2(b._u(x)) / b.width
        return d

    def value(self, x):
        x = self._check_domain(x)
        return self.base.value(self._b(x))

    def inverse_value(self, y):
        return self._b_inv(self.base.inverse_map().value(y))

    def log_deriv(self, x):
        x = self._check_domain(x)
        return self.base.log_deriv(self._b(x)) + np.log(self._db(x))

    def affine_deriv(self, x):
        x = self._check_domain(x)
        bx = self._b(x)
        db = self._db(x)
        return self._d2b(x) / db + self.base.affine_deriv(bx) * db

    def reflect(self):
        # the bump profile is symmetric under u -> 1-u, so each displacement
        # bump reflects to one at the mirrored center with negated amplitude
        refl = [Bump(1.0 - b.center, b.width, -b.amplitude) for b in self.bumps]
        return BumpPerturbation(self.base.reflect(), refl)

    def __repr__(self):
        return f"BumpPerturbation({self.base!r}, {list(self.bumps)!r})"


# ---------------------------------------------------------------------------
# group operations (interval and circle dispatch)


def compose(f, g):
    """f o g, with symbolic fast paths."""
    if getattr(f, "kind", None) == "circle" or getattr(g, "kind", None) == "circle":
        return circle_compose(f, g)
    if isinstance(f, Moebius) and isinstance(g, Moebius):
        return Moebius(f.a * g.a)
    if _is_identity(f):
        return g
    if _is_identity(g):
        return f
    fast = getattr(f, "_compose_fast", None)
    if fast is not None:
        out = fast(g)
        if out is not None:
            return out
    if f is g:
        return Iterate(f, 2)
    if isinstance(f, Iterate) and f.f is g:
        return Iterate(g, f.n + 1)
    if isinstance(g, Iterate) and g.f is f:
        return Iterate(f, g.n + 1)
    if isinstance(f, Iterate) and isinstance(g, Iterate) and f.f is g.f:
        return Iterate(f.f, f.n + g.n)
    return Composition([f, g])


def inverse(f):
    if getattr(f, "kind", None) == "circle":
        return circle_inverse(f)
    return f.inverse_map()


def iterate(f, n: int):
    """f^n via symbolic fast paths, else orbit accumulation."""
    n = int(n)
    if getattr(f, "kind", None) == "circle":
        if n == 0:
            return Rotation(0.0)
        if n < 0:
            return CircleIterate(circle_inverse(f), -n)
        if isinstance(f, Rotation):
            return Rotation(f.alpha * n)
        return CircleIterate(f, n)
    if n == 0:
        return identity()
    if n < 0:
        return iterate(f.inverse_map(), -n)
    if isinstance(f, Moebius):
        return Moebius(f.a**n)
    # flow-time maps are handled by their own fast path
    fast = getattr(f, "_iterate_fast", None)
    if fast is not None:
        out = fast(n)
        if out is not None:
            return out
    if n == 1:
        return f
    return Iterate(f, n)


def evaluate(f, x, want: str = "value"):
    """Uniform evaluation entry point: want in {value, log_deriv, affine_deriv}."""
    if want == "value":
        return f.value(x) if f.kind == "interval" else f.lift(x)
    if want == "log_deriv":
        return f.log_deriv(x)
    if want == "affine_deriv":
        return f.affine_deriv(x)
    raise ValueError(f"unknown evaluation request {want!r}")


# ---------------------------------------------------------------------------
# metrics


_METRIC_RS = ("1", "1+bv", "1+ac", "2")


def metric(f, g, r="1", starred: bool = False, cfg: ToleranceConfig = DEFAULT_CONFIG):
    """The C^r distances d_r / d_r^* between two same-kind diffeomorphisms."""
    r = str(r)
    if r not in _METRIC_RS:
        raise ValueError(f"unsupported metric selector {r!r}")
    if f.kind != g.kind:
        raise ValueError("metric needs two maps of the same kind")
    N = cfg.grid_N
    x = np.linspace(0.0, 1.0, N + 1)
    if f.kind == "interval":
        fv, gv = f.value(x), g.value(x)
        value_fn = lambda t: f.value(t) - g.value(t)
        ld_fn = lambda t: f.log_deriv(t) - g.log_deriv(t)
    else:
        fv, gv = f.lift(x), g.lift(x)
        value_fn = lambda t: f.lift(t) - g.lift(t)
        ld_fn = lambda t: f.log_deriv(t) - g.log_deriv(t)
    u = ld_fn(x)
    if r == "1":
        dist = _refined_max(ld_fn, x, u)
    elif r in ("1+bv", "1+ac"):
        # var of the sampled difference = L1 norm of the interpolant's
        # derivative; identical formulas, different preconditions
        dist = float(np.abs(np.diff(u)).sum())
    else:  # r == "2"
        try:
            dv = f.affine_deriv(x) - g.affine_deriv(x)
            aff_fn = lambda t: f.affine_deriv(t) - g.affine_deriv(t)
            dist = _refined_max(aff_fn, x, dv)
        except NotImplementedError:
            dv = np.gradient(u, 1.0 / N)
            dist = float(np.max(np.abs(dv)))
    if not starred:
        dist += _refined_max(value_fn, x, fv - gv)
    return float(dist)


# ---------------------------------------------------------------------------
# circle diffeomorphisms


class CircleDiffeo:
    """Circle map via a lift F with F(x+1) = F(x) + 1."""

    kind = "circle"
    is_grid_backed = False

    def lift_frac(self, x):
        """Lift evaluated for x in [0, 1]."""
        raise NotImplementedError

    def lift(self, x):
        x = np.asarray(x, dtype=float)
        k = np.floor(x)
        return k + self.lift_frac(x - k)

    def displacement(self, x):
        return self.lift(x) - np.asarray(x, dtype=float)

    @cached_property
    def _lift0(self) -> float:
        return float(np.asarray(self.lift(np.zeros(1)))[0])

    def inverse_lift(self, x):
        """F^{-1}(x) by bisection; CircleGrid overrides this.  The
        displacement of a degree-one lift varies by less than 1 over the
        circle, so the root lies within 1 of x - F(0)."""
        x = np.asarray(x, dtype=float)
        c = self._lift0
        return bisect_monotone(self.lift, x, x - c - 2.0, x - c + 2.0)

    def log_deriv(self, x):
        raise NotImplementedError

    def value(self, x):
        """Circle point image in [0, 1)."""
        return np.mod(self.lift(x), 1.0)

    def __call__(self, x):
        return self.lift(x)


class Rotation(CircleDiffeo):
    def __init__(self, alpha: float):
        self.alpha = float(alpha)

    def lift_frac(self, x):
        return np.asarray(x, dtype=float) + self.alpha

    def log_deriv(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def affine_deriv(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def __repr__(self):
        return f"Rotation({self.alpha!r})"


class CircleGrid(CircleDiffeo):
    """Lift from displacement samples on [0,1]; optional log-derivative
    samples (else finite differences of the displacement)."""

    is_grid_backed = True

    def __init__(self, disp: GridFunction, logd: GridFunction | None = None,
                 cfg: ToleranceConfig = DEFAULT_CONFIG):
        if abs(disp.samples[-1] - disp.samples[0]) > 1e2 * cfg.abs_tol:
            raise ValueError("displacement seam mismatch: F(x+1) != F(x)+1")
        # enforce exact periodicity at the seam
        s = disp.samples.copy()
        s[-1] = s[0]
        self.disp = GridFunction(s)
        self._lift_table = self.disp.nodes + self.disp.samples
        if not np.all(np.diff(self._lift_table) > 0):
            raise MonotonicityError("lift is not strictly increasing")
        if logd is not None and abs(logd.samples[-1] - logd.samples[0]) > 1e-6:
            raise ValueError("log-derivative seam mismatch")
        self.logd = logd

    def lift_frac(self, x):
        x = np.asarray(x, dtype=float)
        return x + self.disp(x)

    def inverse_lift(self, x):
        # exact: reduce by L(y + 1) = L(y) + 1 into [L(0), L(0) + 1], then
        # read the piecewise-linear lift table backwards
        x = np.asarray(x, dtype=float)
        k = np.floor(x - self._lift_table[0])
        return k + np.interp(x - k, self._lift_table, self.disp.nodes)

    def log_deriv(self, x):
        x = np.asarray(x, dtype=float)
        x = np.mod(x, 1.0)
        if self.logd is not None:
            return self.logd(x)
        # centered differences of the periodic displacement
        s = self.disp.samples[:-1]
        N = len(s)
        d = (np.roll(s, -1) - np.roll(s, 1)) * (N / 2.0)
        d = np.append(d, d[0])
        return np.log1p(np.interp(x, self.disp.nodes, d))

    def __repr__(self):
        return f"CircleGrid(N={self.disp.N})"


class CircleComposition(CircleDiffeo):
    """maps[0] o maps[1] o ... at the lift level (symbolic)."""

    def __init__(self, maps):
        flat = []
        for m in maps:
            if isinstance(m, CircleComposition):
                flat.extend(m.maps)
            else:
                flat.append(m)
        self.maps = tuple(flat)
        self.is_grid_backed = any(m.is_grid_backed for m in self.maps)

    def lift_frac(self, x):
        y = np.asarray(x, dtype=float)
        for m in reversed(self.maps):
            y = m.lift(y)
        return y

    def lift(self, x):
        y = np.asarray(x, dtype=float)
        for m in reversed(self.maps):
            y = m.lift(y)
        return y

    def log_deriv(self, x):
        y = np.asarray(x, dtype=float)
        acc = np.zeros_like(y)
        for m in reversed(self.maps):
            acc = acc + m.log_deriv(y)
            y = m.lift(y)
        return acc

    def __repr__(self):
        return f"CircleComposition({list(self.maps)!r})"


class CircleInverse(CircleDiffeo):
    def __init__(self, f: CircleDiffeo):
        self.f = f
        self.is_grid_backed = f.is_grid_backed

    def lift(self, x):
        return self.f.inverse_lift(x)

    def lift_frac(self, x):
        return self.lift(np.asarray(x, dtype=float))

    def log_deriv(self, x):
        y = self.lift(np.asarray(x, dtype=float))
        return -self.f.log_deriv(y)

    def __repr__(self):
        return f"CircleInverse({self.f!r})"


class CircleIterate(CircleDiffeo):
    def __init__(self, f: CircleDiffeo, n: int):
        self.f = f
        self.n = int(n)
        self.is_grid_backed = f.is_grid_backed

    def lift(self, x):
        y = np.asarray(x, dtype=float)
        for _ in range(self.n):
            y = self.f.lift(y)
        return y

    def lift_frac(self, x):
        return self.lift(np.asarray(x, dtype=float))

    def log_deriv(self, x):
        y = np.asarray(x, dtype=float)
        acc = np.zeros_like(y)
        for _ in range(self.n):
            acc = acc + self.f.log_deriv(y)
            y = self.f.lift(y)
        return acc

    def __repr__(self):
        return f"CircleIterate({self.f!r}, {self.n})"


def circle_compose(f, g):
    if isinstance(f, Rotation) and isinstance(g, Rotation):
        return Rotation(f.alpha + g.alpha)
    return CircleComposition([f, g])


def circle_inverse(f):
    if isinstance(f, Rotation):
        return Rotation(-f.alpha)
    if isinstance(f, CircleInverse):
        return f.f
    return CircleInverse(f)


# ---------------------------------------------------------------------------
# rotation number


@dataclass(frozen=True)
class RotationNumber:
    value: float            # in [0, 1)
    uncertainty: float
    converged: bool
    iterations: int
    birkhoff_tail: float    # |rho_K - rho_{K/2}|, raw Birkhoff uncertainty


def rotation_number(f: CircleDiffeo, cfg: ToleranceConfig = DEFAULT_CONFIG) -> RotationNumber:
    """Translation number of the lift, lim F^n(0)/n, reduced mod 1.

    Plain Birkhoff averages converge like 1/n; the estimate here uses the
    closest-return times of the orbit (the continued-fraction denominators),
    for which |F^q(0)/q - rho| shrinks like dist(F^q(0), Z)/q."""
    K = int(min(cfg.max_iter, 1 << 16))
    # pre-sample the lift once so the long orbit iterates a table lookup
    # instead of re-running per-point bisections inside composed inverses;
    # lift(x + m) = lift(x) + m reduces every step to the fundamental domain
    M = 1 << 15
    grid = np.linspace(0.0, 1.0, M + 1)
    lift_grid = np.asarray(f.lift(grid), dtype=float)

    def _step(y):
        m = math.floor(y)
        return m + float(np.interp(y - m, grid, lift_grid))

    y = 0.0
    best_err = math.inf
    best_rho = 0.0
    half_rho = None
    prev = 0.0
    k_done = K
    for k in range(1, K + 1):
        y = _step(y)
        dist = abs(y - round(y))
        err = dist / k
        if err < best_err:
            best_err = err
            best_rho = y / k
        if k == K // 2:
            half_rho = y / k
        if abs(y - prev) < 1e-14:
            # orbit of the lift converged: a fixed point, rotation number 0
            return RotationNumber(0.0, 1e-14, True, k, abs(y / k - prev / max(k - 1, 1)))
        prev = y
    birkhoff_tail = abs(y / k_done - half_rho) if half_rho is not None else math.inf
    value = best_rho % 1.0
    converged = best_err < 1e-4
    return RotationNumber(value, best_err, converged, k_done, birkhoff_tail)


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


def commutator_residual(t: ActionTuple, cfg: ToleranceConfig = DEFAULT_CONFIG) -> float:
    """max over pairs of d_1(f_i o f_j, f_j o f_i)."""
    gens = t.generators
    worst = 0.0
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            a = compose(gens[i], gens[j])
            b = compose(gens[j], gens[i])
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


def _classify(t: ActionTuple, p: float, thr: float, cfg: ToleranceConfig) -> FixedPoint:
    mults = tuple(float(g.log_deriv(p)) for g in t.generators)
    # ambiguity band around the threshold; capped at thr/4 so clear cases
    # (e.g. an exactly parabolic multiplier) never fall inside it
    band = 3.0 * min(cfg.abs_tol, thr / 4.0)
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

    The hyperbolic/parabolic threshold on |log Df(p)| is 1e-8 for analytic
    representations and 1e-4 for grid-backed ones (the dichotomy is exact in
    exact arithmetic; numerics needs a policy)."""
    if t.kind != "interval":
        raise ValueError("fixed point analysis applies to interval actions")
    from scipy.optimize import brentq

    grid_backed = any(g.is_grid_backed for g in t.generators)
    thr = 1e-4 if grid_backed else 1e-8
    loc_tol = 1e-4 if grid_backed else 1e-10

    N = cfg.grid_N
    x = np.linspace(0.0, 1.0, N + 1)
    disps = [g.value(x) - x for g in t.generators]
    total = np.max(np.abs(np.array(disps)), axis=0)

    # maximal runs of nodes where every generator is (numerically) identity
    flat = total < loc_tol
    intervals = []
    isolated_flat = []
    i = 0
    while i <= N:
        if flat[i]:
            j = i
            while j + 1 <= N and flat[j + 1]:
                j += 1
            if j > i:
                intervals.append((x[i], x[j]))
            else:
                # a single fixed node is an isolated common fixed point,
                # not a fixed interval
                isolated_flat.append(float(x[i]))
            i = j + 1
        else:
            i += 1

    def in_flat(p):
        return any(a - 1e-12 <= p <= b + 1e-12 for a, b in intervals)

    # isolated candidates: endpoints + bisected sign changes of each f_i - id
    candidates = {0.0, 1.0}
    candidates.update(isolated_flat)
    for gi, disp in zip(t.generators, disps):
        sign = np.sign(disp)
        for i in range(N):
            if sign[i] * sign[i + 1] < 0:
                fn = lambda p: float(gi.value(p) - p)
                candidates.add(float(brentq(fn, x[i], x[i + 1], xtol=1e-14)))
            elif sign[i] != 0 and sign[i + 1] == 0 and not flat[i + 1]:
                candidates.add(float(x[i + 1]))

    points = []
    for p in sorted(candidates):
        if in_flat(p):
            continue
        if max(abs(float(g.value(p)) - p) for g in t.generators) > 10 * loc_tol:
            continue
        if points and abs(p - points[-1].location) < 2.0 / N:
            continue
        points.append(_classify(t, p, thr, cfg))

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
