"""Generating vector fields of interval contractions and their flows.

A contraction f (f(x) < x on (0,1)) embeds in a C^1 flow generated by the
limit field

    X = c0(f) * Delta * exp(Sigma),   Delta = f - id,
    Sigma = sum_k theta o f^k,
    theta(x) = log[ (f^2(x) - f(x)) / (Df(x) * (f(x) - x)) ],
    c0(f) = log Df(0) / (Df(0) - 1)   (:= 1 when Df(0) = 1).

The series is summed once, on one reference fundamental interval
[f(1/2), 1/2].  Everything else reaches that interval by exact f-iteration,
through two orbit walks.  The inbound walk carries x to y = f^k(x) in the
interval and adds up log Df^k(x), so X(x) = X(y) / Df^k(x) (from
X(f(x)) = X(x) Df(x)).  Flows are evaluated in the time-change coordinate
tau = int du/X, in which the flow is the unit-speed translation,
f^t = tau^{-1} o T_t o tau; tau(x) = tau(y) - k, so the improper integral
near the endpoints is never formed.  The outbound walk applies f^j to a
point of the interval read off the tau^{-1} table (of the integral of 1/X)
and adds up log Df^j on the way.  One walk in and one out therefore give
both f^t(x) and log Df^t(x) = log X(f^t x) - log X(x).
"""

from __future__ import annotations

import math

import numpy as np

from .gridfn import (
    ABS_TOL,
    DEFAULT_CONFIG,
    MAX_ITER,
    TAIL_TOL,
    CubicTable,
    DomainError,
    PointMemo,
    ToleranceConfig,
    not_a_knot_slopes,
    unit_points,
    variation,
)
from .diffeo import IntervalDiffeo, bisect_monotone

__all__ = [
    "NotAContraction",
    "TailNotReached",
    "TransportBudgetExceeded",
    "VectorField1D",
    "AnalyticField",
    "SzekeresField",
    "FlowTime",
    "moebius_field",
    "szekeres_field",
    "flow_group_residual",
    "szekeres_bv_check",
]


class NotAContraction(ValueError):
    """The map does not satisfy f(x) < x on (0, 1)."""


class TailNotReached(RuntimeError):
    """The series tail bound did not fall below TAIL_TOL within budget."""


class TransportBudgetExceeded(RuntimeError):
    """An orbit walk to or from the reference interval needed more than
    MAX_ITER steps of f (points too close to a fixed point)."""


_TINY = 1e-15
# nodes of the series table on the reference fundamental interval
_REF_NODES = 4097
# within this distance of an end, log Df^t is read off the endpoint rate
_EDGE_EPS = 1e-13


# ---------------------------------------------------------------------------
# field base


class VectorField1D:
    """A field X on [0,1], strictly negative on (0,1) (contraction field),
    vanishing at 0 and 1.  Each field stores its end rates
    ``_edge_rates`` once, where it is built."""

    def X(self, x):
        raise NotImplementedError

    def DX(self, x):
        """Derivative of X, for fields that have it in closed form."""
        raise NotImplementedError

    def edge_rates(self):
        """(DX(0), DX(1)): the log-multipliers of the time-1 map at the ends."""
        return self._edge_rates

    # -- time change --------------------------------------------------------
    def tau(self, x):
        raise NotImplementedError

    def tau_inv(self, s):
        raise NotImplementedError

    def flow(self, x, t):
        """f^t(x) for interior x of shape (n,); t is a scalar or one time
        per point."""
        return self.flow_log_deriv(x, t)[0]

    def flow_log_deriv(self, x, t):
        """(f^t(x), log Df^t(x)) for interior x; t as in ``flow``: the one
        flow kernel of a field.  Non-finite entries are left to the
        caller."""
        raise NotImplementedError


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
        self._edge_rates = (float(self.DX(np.array(0.0))), float(self.DX(np.array(1.0))))

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
        # tau is decreasing: bisect on -tau over [tiny, 1 - tiny]
        return bisect_monotone(lambda v: -self.tau(v), -s, _TINY, 1.0 - _TINY, iters=100)

    def flow(self, x, t):
        if self.family == "bridge":
            # logit is linear in t: x_t = x e^{-lam t} / (1 - x + x e^{-lam t});
            # keeps full relative precision in the tails (the tau round-trip
            # saturates at the clipping floor)
            xa = np.asarray(x, dtype=float)
            e = np.exp(-self.lam * t)
            return xa * e / (1.0 - xa + xa * e)
        return self.tau_inv(self.tau(x) + t)

    def flow_log_deriv(self, x, t):
        # log Df^t = log(X o f^t / X)
        y = self.flow(x, t)
        with np.errstate(divide="ignore", invalid="ignore"):
            return y, np.log(self.X(y) / self.X(x))

    def __repr__(self):
        return f"AnalyticField({self.family!r}, lam={self.lam!r})"


def moebius_field(a: float = 2.0) -> AnalyticField:
    """The generating field of the Moebius one-parameter group h_{a^t}:
    X(x) = -ln(a) x(1-x)."""
    return AnalyticField("bridge", math.log(a))


# ---------------------------------------------------------------------------
# the limit construction


def _theta(y, y1, y2, ld):
    """theta at y given the next two orbit points y1=f(y), y2=f^2(y) and
    ld = log Df(y).

    Once the orbit has collapsed below float resolution (y1 == y or
    y2 == y1) the remaining true factors are 1, so degenerate divided
    differences contribute 0 rather than a non-finite log."""
    num = y2 - y1
    den = np.exp(ld) * (y1 - y)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(num / den)
    return np.where(np.isfinite(out), out, 0.0)


class SzekeresField(VectorField1D):
    """X = c0 * (f - id) * exp(Sigma) with Sigma summed to a certified tail.

    The series is summed once, at construction, on the nodes of the one
    reference fundamental interval [f(1/2), 1/2], and interpolated there by
    the C^2 not-a-knot cubic spline (a ``CubicTable``); tau and tau^-1 are
    Hermite tables of its integral of 1/X, with exact node slopes.  Every
    other interior point is served by one inbound orbit walk into that
    interval (``X``, ``tau``) and, for flows, one outbound walk from it
    (``tau_inv``, ``flow_log_deriv``); a walk longer than MAX_ITER steps
    raises ``TransportBudgetExceeded``.  X vanishes at 0 and 1.  The end
    rates are fixed at construction too.

    A flow's walk in does not depend on the time, so ``flow_log_deriv``
    holds its start (tau(x), X on the table and log Df^k(x)) for the last
    8 point sets in a ``PointMemo``: flows of one field at several times
    walk a point set in once.  ``X`` and ``tau`` are not held.
    """

    def __init__(self, f: IntervalDiffeo, cfg: ToleranceConfig = DEFAULT_CONFIG):
        xs = np.linspace(0.0, 1.0, 513)[1:-1]
        if not np.all(f._value(xs) < xs):
            raise NotAContraction("szekeres_field needs f(x) < x on (0,1)")
        self.f = f
        self.finv = f.inverse_map()
        df0 = float(f.deriv(np.array(0.0)))
        if abs(df0 - 1.0) < 1e-12:
            self.c0 = 1.0
        else:
            self.c0 = math.log(df0) / (df0 - 1.0)
        self.cfg = cfg
        # the flow's log-multipliers at the ends equal those of f; probe a
        # hair inside so charts that share an endpoint with a neighbor are
        # read from the correct side
        lo, hi = f._log_deriv(np.array([1e-12, 1.0 - 1e-12]))
        self._edge_rates = (float(lo), float(hi))

        def _certify(a: float):
            """Smallest i >= 1 with var(log Df; [0, f^i(a)]) < TAIL_TOL, and
            that bound, by a doubling search on i and then bisection.  f^i(a)
            is read from the closed-form power where f has one (near-parabolic
            ends need thousands of terms), else from one scalar orbit walk,
            extended as far as the search asks."""
            orbit = [a]
            tails = {}

            def tail(i):
                # the proof's majorant var(log Df; [0, f^i(a)]) on 513 probes
                if i not in tails:
                    power = f._iterate_fast(i) if i else None
                    if power is not None:
                        z = float(power._value(np.array([a]))[0])
                    else:
                        while len(orbit) <= i:
                            orbit.append(float(f._value(np.array([orbit[-1]]))[0]))
                        z = orbit[i]
                    tails[i] = variation(f._log_deriv(np.linspace(0.0, z, 513)))
                return tails[i]

            if tail(0) < TAIL_TOL:
                return 1, tail(0)
            lo, hi = 0, 1
            while tail(hi) >= TAIL_TOL:
                if hi == MAX_ITER:
                    raise TailNotReached(
                        f"tail bound {tail(hi):.3e} above tail_tol="
                        f"{TAIL_TOL:.1e} after {hi} terms")
                lo, hi = hi, min(2 * hi, MAX_ITER)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if tail(mid) < TAIL_TOL:
                    hi = mid
                else:
                    lo = mid
            return hi, tail(hi)

        self.n_terms, self.tail_bound = _certify(1.0 - 1.0 / cfg.grid_N)

        # reference fundamental interval [f(1/2), 1/2]
        self.anchor = 0.5
        fa = float(f.value(np.array(self.anchor)))
        ref_x = np.linspace(fa, self.anchor, _REF_NODES)
        self._ref_x = ref_x
        # the reference interval sits at the anchor, where the majorant is
        # far smaller than at 1 - 1/N; certify it separately so a slow tail
        # at the repelling end does not force thousands of series terms here
        self._n_ref, _ = _certify(self.anchor)
        xr = self._X_series(ref_x, terms=self._n_ref)
        # a C^2 table: a piecewise-linear one puts kinks into the finite
        # differences of transported fields
        self._X_table = CubicTable(ref_x, xr, not_a_knot_slopes(ref_x, xr))
        cum = np.cumsum(CubicTable.integral(np.reciprocal, self._X_table.coef, np.diff(ref_x)))
        # the table's period P = int 1/X over [f(1/2), 1/2] = -cum[-1] (cum < 0:
        # X < 0) misses 1 by the series truncation; X scaled by P and tau by
        # 1/P make f exactly the time-1 map of the table's flow, so tau
        # decreases from tau(f(anchor)) = 1 to tau(anchor) = 0, exactly
        period = -float(cum[-1])
        self._period_residual = abs(period - 1.0)
        self._X_table.coef *= period
        xr = xr * period
        tau = (np.concatenate(([0.0], cum)) + period) / period
        self._tau_table = CubicTable(ref_x, tau, 1.0 / xr)
        self._tau_inv_table = CubicTable(tau[::-1], ref_x[::-1], xr[::-1])
        self._starts = PointMemo()

    # -- series -------------------------------------------------------------
    def sigma(self, x, terms: int | None = None):
        """Sigma(x) by direct summation of theta o f^k, for a 1-d array x
        checked once on entry; each term takes f^(k+2)(x) and
        log Df(f^(k+1)(x)) from one kernel ``_jet``."""
        y = unit_points(x, 1e-12)
        acc = np.zeros_like(y)
        y1, ld = self.f._jet(y)
        for _ in range(self.n_terms if terms is None else terms):
            y2, ld1 = self.f._jet(y1)
            acc = acc + _theta(y, y1, y2, ld)
            y, y1, ld = y1, y2, ld1
        return acc

    def _X_series(self, x, terms: int | None = None):
        return self.c0 * (self.f._value(x) - x) * np.exp(self.sigma(x, terms))

    def X(self, x):
        x = unit_points(x, 1e-12)
        out = np.zeros_like(x)
        # only interior points: the fixed points 0 and 1 never reach the
        # reference interval
        interior = (x > 0.0) & (x < 1.0)
        y, _, logchain = self._walk_in(x[interior])
        out[interior] = self._read(self._X_table, y) * np.exp(-logchain)
        return out[()]

    def _read(self, table, y):
        # a walk stops within 1e-15 of the interval: read the nearer table
        # end, never extrapolate
        return table(np.clip(y, self._ref_x[0], self._ref_x[-1]))

    # -- orbit walks ------------------------------------------------------------
    def _walk(self, g, y, idx, arrived, logchain, k=None):
        """Step each point y[idx] by g (f or f^-1) until ``arrived(v, n, i)``
        holds, v being the points still moving, n the steps each has taken
        and i their indices.  Each point is written back to y on arrival,
        with its log Dg^n into logchain and its count n into k (when
        given).  Every step takes g's value and log-derivative from one
        ``_jet`` call."""
        v = y[idx]
        acc = np.zeros(v.shape)
        n = 0
        while idx.size:
            if n == MAX_ITER:
                raise TransportBudgetExceeded(
                    f"{idx.size} point(s) need more than MAX_ITER="
                    f"{MAX_ITER} orbit steps (nearest the ends: "
                    f"{float(v[np.argmin(np.minimum(v, 1.0 - v))])!r})")
            v, ld = g._jet(v)
            acc += ld
            n += 1
            done = arrived(v, n, idx)
            if np.any(done):
                at = idx[done]
                y[at] = v[done]
                logchain[at] = acc[done]
                if k is not None:
                    k[at] = n
                idx, v, acc = idx[~done], v[~done], acc[~done]

    def _walk_in(self, x):
        """Carry interior points x into the reference interval [f(1/2), 1/2]:
        those above it by f, those below by f^-1.

        Returns (y, k, log Df^k(x)) with y = f^k(x), k signed (k < 0 counts
        steps of f^-1).  A step that leaves a point short of the interval
        where it was (f(x) rounds to x within an ulp of an end) would repeat
        forever, so it raises ``TransportBudgetExceeded`` at once."""
        y = np.array(x, dtype=float)
        k = np.zeros(y.shape, dtype=int)
        logchain = np.zeros(y.shape)
        lo, hi = self._ref_x[0] - 1e-15, self._ref_x[-1] + 1e-15
        up, down = y > hi, y < lo
        last = y.copy()

        def arrived(v, n, i):
            # a point that did not move is still outside the interval
            stalled = v == last[i]
            if np.any(stalled):
                raise TransportBudgetExceeded(
                    f"{int(stalled.sum())} point(s) do not move under an orbit "
                    f"step and can never reach the reference interval "
                    f"(first: {float(v[stalled][0])!r})")
            last[i] = v
            return np.where(up[i], v <= hi, v >= lo)

        self._walk(self.f, y, np.flatnonzero(up), arrived, logchain, k)
        self._walk(self.finv, y, np.flatnonzero(down), arrived, logchain, k)
        k[down] *= -1
        return y, k, logchain

    def _walk_out(self, y, j):
        """(f^j(y), log Df^j(y)) per point, j signed as in ``_walk_in``."""
        out = np.array(y, dtype=float)
        logchain = np.zeros(out.shape)
        steps = lambda v, n, i: np.abs(j[i]) == n
        self._walk(self.f, out, np.flatnonzero(j > 0), steps, logchain)
        self._walk(self.finv, out, np.flatnonzero(j < 0), steps, logchain)
        return out, logchain

    def _split_time(self, s):
        """tau^-1 = f^j o (tau on the reference interval)^-1: the count j
        of whole periods (f is the time-1 map) and the reference point for
        each time s."""
        j = np.floor(s).astype(int)
        return j, self._tau_inv_table(s - j)

    # -- time change via the reference interval -----------------------------
    def tau(self, x):
        x = np.asarray(x, dtype=float)
        if not np.all((x > 0.0) & (x < 1.0)):
            raise DomainError("tau is infinite outside the open interval (0, 1)")
        # the walks read 1-d arrays
        y, k, _ = self._walk_in(x.ravel())
        t = self._read(self._tau_table, y) - k
        return t.reshape(x.shape)[()]

    def tau_inv(self, s):
        s = np.asarray(s, dtype=float)
        if not np.all(np.isfinite(s)):
            raise DomainError("tau_inv needs finite times")
        # f^j for j > 0 moves toward 0, matching increasing tau
        j, z = self._split_time(s.ravel())
        y, _ = self._walk_out(z, j)
        return y.reshape(s.shape)[()]

    def _start(self, x):
        # the walks read f's kernels, so x is checked here, before the walk
        # in: (tau(x), X(y0) on the table, log Df^k(x)) for y0 = f^k(x)
        y0, k, log_in = self._walk_in(unit_points(x, 1e-12))
        return self._read(self._tau_table, y0) - k, self._read(self._X_table, y0), log_in

    def flow_log_deriv(self, x, t):
        """One walk in gives tau(x) and log Df^k(x), one walk out from the
        reference point of tau(x) + t gives f^t(x) and log Df^j there:
        log Df^t(x) = log X(f^t x) - log X(x), both read off the table.
        The walk in does not depend on t: its start is held for the last
        8 point sets, so flows at several times walk a point set in once."""
        tau0, x0, log_in = self._starts(x, self._start)
        j, z = self._split_time(tau0 + t)
        y, log_out = self._walk_out(z, j)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.log(self._read(self._X_table, z) / x0)
        return y, ratio + log_out + log_in

    def diagnostics(self):
        # period_residual: the series table's period int 1/X over one
        # fundamental interval, less 1, before the table was scaled by it
        return {"terms": self.n_terms, "tail_bound": self.tail_bound, "anchor": self.anchor,
                "period_residual": self._period_residual}

    def __repr__(self):
        return f"SzekeresField({self.f!r}, terms={self.n_terms})"


# ---------------------------------------------------------------------------
# flow-time maps


class FlowTime(IntervalDiffeo):
    """The time-t map of a contraction field, as an interval diffeomorphism.

    Its one kernel is the jet (its value is the jet's first output), which
    reads the field's one flow kernel ``flow_log_deriv`` once, over every
    interior point.  Within _EDGE_EPS of an end, and where the ratio
    log X(f^t x) - log X(x) is not finite (the field underflows inside the
    endpoint linearization zone), log Df^t is the endpoint rate t * DX(end),
    from the rates the field stored when it was built."""

    def __init__(self, field: VectorField1D, t: float):
        self.field = field
        self.t = float(t)
        if not math.isfinite(self.t):
            raise ValueError(f"a flow time must be finite, not {self.t!r}")

    # perfbench/tracing.py times these two public entries by name on FlowTime
    value = IntervalDiffeo.value
    log_deriv = IntervalDiffeo.log_deriv

    def _value(self, x):
        return self._jet(x)[0]

    def _jet(self, x):
        val = x.copy()
        ld = np.zeros(x.shape)
        interior = (x > 0.0) & (x < 1.0)
        if self.t != 0.0 and np.any(interior):
            val[interior], ld[interior] = self.field.flow_log_deriv(x[interior], self.t)
        edge0, edge1 = self.field.edge_rates()
        edge = (x <= _EDGE_EPS) | (x >= 1.0 - _EDGE_EPS) | ~np.isfinite(ld)
        ld[edge] = np.where(x[edge] < 0.5, self.t * edge0, self.t * edge1)
        return val, ld

    def _affine_deriv(self, x):
        # D log Df^t = (DX o f^t - DX) / X  away from the endpoints; a field
        # without a closed-form DX raises NotImplementedError
        eps = 1e-9
        # at the ends, the one-sided limit via a nearby interior probe
        x = np.where((x > eps) & (x < 1.0 - eps), x, np.clip(x, 2 * eps, 1.0 - 2 * eps))
        y = self.field.flow(x, self.t) if self.t != 0.0 else x
        return (self.field.DX(y) - self.field.DX(x)) / self.field.X(x)

    def inverse_map(self):
        return FlowTime(self.field, -self.t)

    def reflect(self):
        # the bridge field is odd under x -> 1 - x, so r o f^t o r is its
        # time -t map, exactly; other fields take the generic chart
        if isinstance(self.field, AnalyticField) and self.field.family == "bridge":
            return FlowTime(self.field, -self.t)
        return super().reflect()

    def _iterate_fast(self, n: int):
        return FlowTime(self.field, self.t * n)

    def _compose_fast(self, other):
        if isinstance(other, FlowTime) and other.field is self.field:
            return FlowTime(self.field, self.t + other.t)
        return None

    def __repr__(self):
        return f"FlowTime({self.field!r}, t={self.t!r})"


# ---------------------------------------------------------------------------
# operations


def szekeres_field(f: IntervalDiffeo, cfg: ToleranceConfig = DEFAULT_CONFIG) -> SzekeresField:
    """The generating field of the C^1 flow containing the contraction f."""
    return SzekeresField(f, cfg)


def flow_group_residual(X: VectorField1D, s: float, t: float) -> float:
    """d_1(f^{s+t}, f^s o f^t) measured on a probe grid."""
    if s == 0.0 and t == 0.0:
        return 0.0
    one = FlowTime(X, s + t)
    two_outer = FlowTime(X, s)
    two_inner = FlowTime(X, t)
    probes = np.linspace(0.0, 1.0, 257)
    a, la = one.jet(probes)
    y, l_inner = two_inner.jet(probes)
    b, l_outer = two_outer.jet(y)
    lb = l_outer + l_inner
    return float(np.max(np.abs(a - b)) + np.max(np.abs(la - lb)))


def szekeres_bv_check(f: IntervalDiffeo, c: float,
                      cfg: ToleranceConfig = DEFAULT_CONFIG) -> dict:
    """The C^{bv} control of the limit field on one fundamental interval:

        | var(log|X|; [f(c), c]) - |log Df(0)| |  <=  var(log Df; [0, c]).

    X is read on [f(c), c] from the one field of f, whose inbound walk
    carries each sample to the field's reference interval."""
    if not (0.0 < c < 1.0):
        raise ValueError("anchor c must be interior")
    X = SzekeresField(f, cfg)
    fc = float(f.value(np.array(c)))
    xs = np.linspace(fc, c, 4097)
    logX = np.log(-X.X(xs))
    var_logX = variation(logX)
    log_df0 = abs(float(f.log_deriv(np.array(0.0))))
    probes = np.linspace(0.0, c, 4097)
    var_logdf = variation(f.log_deriv(probes))
    ok = abs(var_logX - log_df0) <= var_logdf + ABS_TOL
    return {
        "var_logX_fundamental": var_logX,
        "abs_log_df0": log_df0,
        "var_logdf_0_c": var_logdf,
        "inequality_holds": bool(ok),
    }
