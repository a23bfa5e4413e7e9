"""Generating vector fields of interval contractions and their flows.

A contraction f (f(x) < x on (0,1)) embeds in a C^1 flow generated by the
limit field

    X = c0(f) * Delta * exp(Sigma),   Delta = f - id,
    Sigma = sum_k theta o f^k,
    theta(x) = log[ (f^2(x) - f(x)) / (Df(x) * (f(x) - x)) ],
    c0(f) = log Df(0) / (Df(0) - 1)   (:= 1 when Df(0) = 1).

The series is summed once, on one reference fundamental interval [f(c), c];
X elsewhere is transported there by exact f-iteration, using the invariance
X(f(x)) = X(x) Df(x).  Flows are evaluated through the time-change coordinate
tau = int du/X, in which the flow is the unit-speed translation:
f^t = tau^{-1} o T_t o tau.  The improper integral near the endpoints is
avoided the same way: tau is resolved on the reference interval and
transported by tau(f(x)) = tau(x) + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gridfn import DEFAULT_CONFIG, DomainError, GridFunction, ToleranceConfig
from .diffeo import IntervalDiffeo, Moebius, bisect_monotone, metric

__all__ = [
    "NotAContraction",
    "TailNotReached",
    "VectorField1D",
    "AnalyticField",
    "GridField",
    "SzekeresField",
    "FlowTime",
    "moebius_field",
    "szekeres_field",
    "flow_time",
    "flow_group_residual",
    "szekeres_bv_check",
]


class NotAContraction(ValueError):
    """The map does not satisfy f(x) < x on (0, 1)."""


class TailNotReached(RuntimeError):
    """The series tail bound did not fall below tail_tol within budget."""


_TINY = 1e-15


# ---------------------------------------------------------------------------
# field base


class VectorField1D:
    """A field X on [0,1], strictly negative on (0,1) (contraction field),
    vanishing at 0 and 1."""

    def X(self, x):
        raise NotImplementedError

    def DX(self, x):
        """Derivative of X; numeric fallback via central differences."""
        x = np.asarray(x, dtype=float)
        h = 1e-6
        lo = np.clip(x - h, 0.0, 1.0)
        hi = np.clip(x + h, 0.0, 1.0)
        return (self.X(hi) - self.X(lo)) / (hi - lo)

    def edge_rates(self):
        """(DX(0), DX(1)): the log-multipliers of the time-1 map at the ends."""
        return float(self.DX(np.array(0.0))), float(self.DX(np.array(1.0)))

    # -- time change --------------------------------------------------------
    def tau(self, x):
        raise NotImplementedError

    def tau_inv(self, s):
        raise NotImplementedError

    def flow(self, x, t: float):
        """f^t(x) for interior x (vectorized)."""
        if t == 0.0:
            return np.asarray(x, dtype=float).copy()
        return self.tau_inv(self.tau(x) + t)

    def time_map(self, t: float) -> "FlowTime":
        return FlowTime(self, t)

    def check_contraction(self, n_probe: int = 257):
        xs = np.linspace(0.0, 1.0, n_probe)[1:-1]
        if not np.all(self.X(xs) < 0):
            raise NotAContraction("field is not strictly negative on (0,1)")


def _tau_inv_by_bisection(field: VectorField1D, s):
    """Invert the (decreasing) tau by bisection on [tiny, 1-tiny]."""
    s = np.asarray(s, dtype=float)
    lo = np.full(s.shape, _TINY)
    hi = np.full(s.shape, 1.0 - _TINY)
    # tau is decreasing in x; bisect on -tau which is increasing
    y = bisect_monotone(lambda v: -field.tau(v), -s, lo, hi, iters=100)
    return y


class AnalyticField(VectorField1D):
    """Closed-form contraction fields with exact tau (basepoint 1/2).

    family 'bridge'         : X = -lam x(1-x)        (hyperbolic at 0 and 1)
    family 'parabolic_right': X = -lam x(1-x)^2      (hyperbolic 0, parabolic 1)
    family 'parabolic_both' : X = -lam x^2(1-x)^2    (parabolic at 0 and 1)
    """

    FAMILIES = ("bridge", "parabolic_right", "parabolic_both")

    def __init__(self, family: str, lam: float):
        if family not in self.FAMILIES:
            raise ValueError(f"unknown analytic field family {family!r}")
        if lam <= 0:
            raise ValueError("lam must be positive")
        self.family = family
        self.lam = float(lam)

    def X(self, x):
        x = np.asarray(x, dtype=float)
        if self.family == "bridge":
            return -self.lam * x * (1.0 - x)
        if self.family == "parabolic_right":
            return -self.lam * x * (1.0 - x) ** 2
        return -self.lam * x**2 * (1.0 - x) ** 2

    def DX(self, x):
        x = np.asarray(x, dtype=float)
        if self.family == "bridge":
            return -self.lam * (1.0 - 2.0 * x)
        if self.family == "parabolic_right":
            return -self.lam * (1.0 - x) * (1.0 - 3.0 * x)
        return -self.lam * 2.0 * x * (1.0 - x) * (1.0 - 2.0 * x)

    def _antideriv(self, x):
        """Closed-form antiderivative of 1/(X/-lam) i.e. of the reciprocal
        polynomial, via partial fractions."""
        if self.family == "bridge":
            return np.log(x / (1.0 - x))
        if self.family == "parabolic_right":
            return np.log(x) - np.log(1.0 - x) + 1.0 / (1.0 - x)
        return -1.0 / x + 2.0 * (np.log(x) - np.log(1.0 - x)) + 1.0 / (1.0 - x)

    def tau(self, x):
        x = np.clip(np.asarray(x, dtype=float), _TINY, 1.0 - _TINY)
        return -(self._antideriv(x) - self._antideriv(np.asarray(0.5))) / self.lam

    def tau_inv(self, s):
        s = np.asarray(s, dtype=float)
        if self.family == "bridge":
            # tau = -ln(x/(1-x))/lam  =>  x = 1/(1 + exp(lam s))
            return 1.0 / (1.0 + np.exp(np.clip(self.lam * s, -700, 700)))
        return _tau_inv_by_bisection(self, s)

    def flow(self, x, t: float):
        if t == 0.0:
            return np.asarray(x, dtype=float).copy()
        if self.family == "bridge":
            # logit is linear in t: x_t = x e^{-lam t} / (1 - x + x e^{-lam t});
            # keeps full relative precision in the tails (the tau round-trip
            # saturates at the clipping floor)
            xa = np.asarray(x, dtype=float)
            e = math.exp(-self.lam * t)
            return xa * e / (1.0 - xa + xa * e)
        return self.tau_inv(self.tau(x) + t)

    def __repr__(self):
        return f"AnalyticField({self.family!r}, lam={self.lam!r})"


def moebius_field(a: float = 2.0) -> AnalyticField:
    """The generating field of the Moebius one-parameter group h_{a^t}:
    X(x) = -ln(a) x(1-x)."""
    return AnalyticField("bridge", math.log(a))


class GridField(VectorField1D):
    """Field from grid samples; tau resolved by trapezoid prefix sums on
    interior nodes (resolution-limited near the endpoints)."""

    def __init__(self, g: GridFunction):
        self.g = g
        xs = g.nodes[1:-1]
        vals = g.samples[1:-1]
        if not np.all(vals < 0):
            raise NotAContraction("grid field must be strictly negative inside")
        inv = 1.0 / vals
        h = 1.0 / g.N
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (inv[1:] + inv[:-1]) * h)])
        anchor = np.argmin(np.abs(xs - 0.5))
        self._xs = xs
        self._tau = cum[anchor] - cum  # decreasing in x, 0 at the anchor node
        self._tau_rev = self._tau[::-1]
        self._xs_rev = xs[::-1]

    def X(self, x):
        return self.g(x)

    def DX(self, x):
        h = 1.0 / self.g.N
        d = np.gradient(self.g.samples, h)
        return np.interp(np.asarray(x, dtype=float), self.g.nodes, d)

    def tau(self, x):
        x = np.clip(np.asarray(x, dtype=float), self._xs[0], self._xs[-1])
        return np.interp(-x, -self._xs, self._tau)

    def tau_inv(self, s):
        s = np.asarray(s, dtype=float)
        return np.interp(s, self._tau_rev, self._xs_rev)

    def __repr__(self):
        return f"GridField(N={self.g.N})"


# ---------------------------------------------------------------------------
# the limit construction


def _theta(f: IntervalDiffeo, y, y1, y2):
    """theta at y given the next two orbit points y1=f(y), y2=f^2(y).

    Once the orbit has collapsed below float resolution (y1 == y or
    y2 == y1) the remaining true factors are 1, so degenerate divided
    differences contribute 0 rather than a non-finite log."""
    num = y2 - y1
    den = f.deriv(y) * (y1 - y)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(num / den)
    return np.where(np.isfinite(out), out, 0.0)


class SzekeresField(VectorField1D):
    """X = c0 * (f - id) * exp(Sigma) with Sigma summed to a certified tail.

    The series is summed once, at construction, on the nodes of the
    reference fundamental interval [f(anchor), anchor], and interpolated
    there by a C^1 cubic spline.  X at any other interior point is
    transported into that interval using the invariance
    X(f(x)) = X(x) Df(x); X vanishes at 0 and 1.
    """

    def __init__(self, f: IntervalDiffeo, cfg: ToleranceConfig = DEFAULT_CONFIG,
                 anchor: float | None = None, ref_nodes: int = 4097):
        xs = np.linspace(0.0, 1.0, 513)[1:-1]
        fx = f.value(xs)
        if not np.all(fx < xs):
            raise NotAContraction("szekeres_field needs f(x) < x on (0,1)")
        self.f = f
        self.finv = f.inverse_map()
        df0 = float(f.deriv(np.array(0.0)))
        if abs(df0 - 1.0) < 1e-12:
            self.c0 = 1.0
        else:
            self.c0 = math.log(df0) / (df0 - 1.0)
        self.cfg = cfg

        # certified truncation: the proof's majorant var(log Df; [0, f^i(a)])
        def _tail_at(z: float) -> float:
            probes = np.linspace(0.0, z, 513)
            ld = f.log_deriv(probes)
            return float(np.abs(np.diff(ld)).sum())

        fast = getattr(f, "_iterate_fast", None)

        def _certify(a: float):
            """Smallest i with var(log Df; [0, f^i(a)]) < tail_tol, plus the
            achieved bound."""
            budget = cfg.max_iter
            if fast is not None:
                # closed-form powers: doubling search then bisection on i --
                # near-parabolic ends need thousands of terms and a stepwise
                # orbit walk would dominate the construction cost
                if _tail_at(a) < cfg.tail_tol:
                    return 1, _tail_at(a)
                hi = 1
                while hi < budget:
                    z = float(fast(hi).value(np.array(a)))
                    if _tail_at(z) < cfg.tail_tol:
                        break
                    hi *= 2
                else:
                    raise TailNotReached(
                        f"tail bound above tail_tol={cfg.tail_tol:.1e} "
                        f"after {budget} terms")
                lo = hi // 2
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    z = float(fast(mid).value(np.array(a)))
                    if _tail_at(z) < cfg.tail_tol:
                        hi = mid
                    else:
                        lo = mid
                return hi, _tail_at(float(fast(hi).value(np.array(a))))
            z = a
            n = 0
            tail = math.inf
            while n < budget:
                tail = _tail_at(z)
                if tail < cfg.tail_tol:
                    return max(n, 1), tail
                z = float(f.value(np.array(z)))
                n += 1
            raise TailNotReached(
                f"tail bound {tail:.3e} above tail_tol={cfg.tail_tol:.1e} "
                f"after {n} terms")

        self.n_terms, self.tail_bound = _certify(1.0 - 1.0 / cfg.grid_N)

        # reference fundamental interval around the anchor
        if anchor is None:
            anchor = 0.5
        self.anchor = float(anchor)
        fa = float(f.value(np.array(self.anchor)))
        ref_x = np.linspace(fa, self.anchor, ref_nodes)
        self._ref_x = ref_x
        # the reference interval sits at the anchor, where the majorant is
        # far smaller than at 1 - 1/N; certify it separately so a slow tail
        # at the repelling end does not force thousands of series terms here
        self._n_ref, _ = _certify(self.anchor)
        self._ref_X = self._X_series(ref_x, terms=self._n_ref)
        # a C^1 table: a piecewise-linear one puts kinks into the finite
        # differences of transported fields
        from scipy.interpolate import CubicSpline
        self._ref_spline = CubicSpline(ref_x, self._ref_X)
        inv = 1.0 / self._ref_X
        dx = ref_x[1] - ref_x[0]
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (inv[1:] + inv[:-1]) * dx)])
        # tau(anchor) = 0, tau(f(anchor)) = +1 (cum is negative: X < 0)
        self._ref_tau = cum - cum[-1]
        self._period = float(self._ref_tau[0])  # = tau(f(anchor)), approx 1

    # -- series -------------------------------------------------------------
    def sigma(self, x, terms: int | None = None):
        """Sigma(x) by direct summation of theta o f^k."""
        y = np.asarray(x, dtype=float)
        acc = np.zeros_like(y)
        y1 = self.f.value(y)
        y2 = self.f.value(y1)
        for _ in range(self.n_terms if terms is None else terms):
            acc = acc + _theta(self.f, y, y1, y2)
            y, y1 = y1, y2
            y2 = self.f.value(y1)
        return acc

    def _X_series(self, x, terms: int | None = None):
        x = np.asarray(x, dtype=float)
        return self.c0 * (self.f.value(x) - x) * np.exp(self.sigma(x, terms))

    def X(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        out = np.zeros_like(x)
        # only interior points: the fixed points 0 and 1 never reach the
        # reference interval
        interior = (x > 0.0) & (x < 1.0)
        out[interior] = self._X_transport(x[interior])
        return out[0] if scalar else out

    def _X_transport(self, x):
        """X via invariance X(x) = X(f^k x) / Df^k(x), with f^k(x) landing in
        the resolved reference interval."""
        y = x.copy()
        logchain = np.zeros_like(y)
        lo, hi = self._ref_x[0], self._ref_x[-1]
        for _ in range(self.cfg.max_iter):
            above = y > hi
            if not np.any(above):
                break
            logchain[above] += self.f.log_deriv(y[above])
            y[above] = self.f.value(y[above])
        for _ in range(self.cfg.max_iter):
            below = y < lo
            if not np.any(below):
                break
            y[below] = self.finv.value(y[below])
            logchain[below] -= self.f.log_deriv(y[below])
        # a point that used up the iteration budget is read at the nearer
        # end of the table, never extrapolated
        return self._ref_spline(np.clip(y, lo, hi)) * np.exp(-logchain)

    def DX(self, x):
        x = np.asarray(x, dtype=float)
        h = 1e-5
        lo = np.clip(x - h, 0.0, 1.0)
        hi = np.clip(x + h, 0.0, 1.0)
        return (self.X(hi) - self.X(lo)) / (hi - lo)

    def edge_rates(self):
        # the flow's log-multipliers at the ends equal those of f; probe a
        # hair inside so charts that share an endpoint with a neighbor are
        # read from the correct side
        return (float(self.f.log_deriv(np.array(1e-12))),
                float(self.f.log_deriv(np.array(1.0 - 1e-12))))

    # -- time change via the reference interval -----------------------------
    def _to_ref(self, x):
        """Iterate points into [f(c), c]; returns (ref points, signed counts)."""
        y = np.atleast_1d(np.asarray(x, dtype=float)).copy()
        k = np.zeros(y.shape, dtype=int)
        lo, hi = self._ref_x[0], self._ref_x[-1]
        for _ in range(self.cfg.max_iter):
            above = y > hi + 1e-15
            if not np.any(above):
                break
            y[above] = self.f.value(y[above])
            k[above] += 1
        else:
            raise RuntimeError("tau transport exceeded the iteration budget")
        for _ in range(self.cfg.max_iter):
            below = y < lo - 1e-15
            if not np.any(below):
                break
            y[below] = self.finv.value(y[below])
            k[below] -= 1
        else:
            raise RuntimeError("tau transport exceeded the iteration budget")
        return y, k

    def tau(self, x):
        x = np.asarray(x, dtype=float)
        if not np.all((x > 0.0) & (x < 1.0)):
            raise DomainError("tau is infinite outside the open interval (0, 1)")
        scalar = x.ndim == 0
        y, k = self._to_ref(x)
        t = np.interp(y, self._ref_x, self._ref_tau) - k
        return float(t[0]) if scalar else t

    def tau_inv(self, s):
        s = np.asarray(s, dtype=float)
        scalar = s.ndim == 0
        s = np.atleast_1d(s).astype(float)
        j = np.floor(s / self._period).astype(int)
        r = s - j * self._period
        y = np.interp(r, self._ref_tau[::-1], self._ref_x[::-1])
        # apply f^j (j > 0 moves toward 0, matching increasing tau)
        jj = j.copy()
        for _ in range(self.cfg.max_iter):
            pos = jj > 0
            if not np.any(pos):
                break
            y[pos] = self.f.value(y[pos])
            jj[pos] -= 1
        for _ in range(self.cfg.max_iter):
            neg = jj < 0
            if not np.any(neg):
                break
            y[neg] = self.finv.value(y[neg])
            jj[neg] += 1
        return float(y[0]) if scalar else y

    def diagnostics(self):
        return {"terms": self.n_terms, "tail_bound": self.tail_bound,
                "anchor": self.anchor, "period_residual": abs(self._period - 1.0)}

    def __repr__(self):
        return f"SzekeresField({self.f!r}, terms={self.n_terms})"


# ---------------------------------------------------------------------------
# flow-time maps


class FlowTime(IntervalDiffeo):
    """The time-t map of a contraction field, as an interval diffeomorphism."""

    def __init__(self, field: VectorField1D, t: float):
        self.field = field
        self.t = float(t)

    def value(self, x):
        x = self._check_domain(x)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        out = x.astype(float).copy()
        interior = (x > 0.0) & (x < 1.0)
        if self.t != 0.0 and np.any(interior):
            out[interior] = self.field.flow(x[interior], self.t)
        return out[0] if scalar else out

    def log_deriv(self, x):
        # log Df^t(x) = log( X(f^t x) / X(x) ); at the endpoints the limit is
        # t * DX(endpoint)
        x = self._check_domain(x)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        out = np.zeros_like(x)
        edge0, edge1 = self.field.edge_rates()
        eps = 1e-13
        interior = (x > eps) & (x < 1.0 - eps)
        if np.any(interior):
            xi = x[interior]
            yi = self.field.flow(xi, self.t) if self.t != 0.0 else xi
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.log(self.field.X(yi) / self.field.X(xi))
            # points whose field value underflows sit inside the endpoint
            # linearization zone: use the edge rate there
            fallback = np.where(xi < 0.5, self.t * edge0, self.t * edge1)
            out[interior] = np.where(np.isfinite(ratio), ratio, fallback)
        out[x <= eps] = self.t * edge0
        out[x >= 1.0 - eps] = self.t * edge1
        return out[0] if scalar else out

    def affine_deriv(self, x):
        # D log Df^t = (DX o f^t - DX) / X  away from the endpoints
        x = self._check_domain(x)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        out = np.zeros_like(x)
        eps = 1e-9
        interior = (x > eps) & (x < 1.0 - eps)
        if np.any(interior):
            xi = x[interior]
            yi = self.field.flow(xi, self.t) if self.t != 0.0 else xi
            out[interior] = (self.field.DX(yi) - self.field.DX(xi)) / self.field.X(xi)
        if np.any(~interior):
            # one-sided limit via a nearby interior probe
            xe = np.clip(x[~interior], 2 * eps, 1.0 - 2 * eps)
            ye = self.field.flow(xe, self.t) if self.t != 0.0 else xe
            out[~interior] = (self.field.DX(ye) - self.field.DX(xe)) / self.field.X(xe)
        return out[0] if scalar else out

    def inverse_map(self):
        return FlowTime(self.field, -self.t)

    def _iterate_fast(self, n: int):
        return FlowTime(self.field, self.t * n)

    @property
    def _flow_key(self):
        return (id(self.field), self.t)

    def _compose_fast(self, other):
        key = getattr(other, "_flow_key", None)
        if key is not None and key[0] == id(self.field):
            return FlowTime(self.field, self.t + other.t)
        return None

    def __repr__(self):
        return f"FlowTime({self.field!r}, t={self.t!r})"


# ---------------------------------------------------------------------------
# operations


def szekeres_field(f: IntervalDiffeo, cfg: ToleranceConfig = DEFAULT_CONFIG) -> SzekeresField:
    """The generating field of the C^1 flow containing the contraction f."""
    return SzekeresField(f, cfg)


def flow_time(X: VectorField1D, t: float, x: float) -> float:
    """f^t(x) for the flow of X; zeros of X are returned unchanged."""
    if t == 0.0:
        return float(x)
    if x <= 0.0 or x >= 1.0 or abs(float(X.X(np.array(float(x))))) == 0.0:
        return float(x)
    return float(X.flow(np.array([float(x)]), t)[0])


def flow_group_residual(X: VectorField1D, s: float, t: float,
                        cfg: ToleranceConfig = DEFAULT_CONFIG) -> float:
    """d_1(f^{s+t}, f^s o f^t) measured on a probe grid."""
    if s == 0.0 and t == 0.0:
        return 0.0
    one = FlowTime(X, s + t)
    two_outer = FlowTime(X, s)
    two_inner = FlowTime(X, t)
    probes = np.linspace(0.0, 1.0, 257)
    a = one.value(probes)
    b = two_outer.value(two_inner.value(probes))
    la = one.log_deriv(probes)
    lb = two_outer.log_deriv(two_inner.value(probes)) + two_inner.log_deriv(probes)
    return float(np.max(np.abs(a - b)) + np.max(np.abs(la - lb)))


def szekeres_bv_check(f: IntervalDiffeo, c: float,
                      cfg: ToleranceConfig = DEFAULT_CONFIG) -> dict:
    """The C^{bv} control of the limit field on one fundamental interval:

        | var(log|X|; [f(c), c]) - |log Df(0)| |  <=  var(log Df; [0, c]).
    """
    if not (0.0 < c < 1.0):
        raise ValueError("anchor c must be interior")
    X = SzekeresField(f, cfg, anchor=c)
    fc = float(f.value(np.array(c)))
    xs = np.linspace(fc, c, 4097)
    logX = np.log(-X.X(xs))
    var_logX = float(np.abs(np.diff(logX)).sum())
    log_df0 = abs(float(f.log_deriv(np.array(0.0))))
    probes = np.linspace(0.0, c, 4097)
    var_logdf = float(np.abs(np.diff(f.log_deriv(probes))).sum())
    ok = abs(var_logX - log_df0) <= var_logdf + cfg.abs_tol
    return {
        "var_logX_fundamental": var_logX,
        "abs_log_df0": log_df0,
        "var_logdf_0_c": var_logdf,
        "inequality_holds": bool(ok),
    }
